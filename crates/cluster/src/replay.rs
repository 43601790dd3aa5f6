//! Flight recorder: record any run, replay it bit-identically, diff two
//! runs to the first divergent event.
//!
//! A run is a pure function of its [`CellSpec`]: same seed, fleet,
//! scheduler, admission, engine config and workload ⇒ bit-identical
//! [`TraceRecord`] stream (the determinism tests in `lib.rs` pin this).
//! This module persists that guarantee: a **flight record** is a versioned
//! JSONL file holding, for every simulated run, one header line — the
//! run's [`CellSpec`], serialized in full, plus a fleet fingerprint and a
//! workload digest — followed by the run's complete trace, one record per
//! line.  The header's JSON codecs live here, the [`SchedulerSpec`] one
//! included (the spec itself sits in [`crate::scheduler`], next to the
//! schedulers it builds).  Anything that can be recorded can be re-ingested
//! ([`parse_flight_record`]), re-run through [`run_cell`] and verified
//! record by record ([`check_replay`]), and compared run-to-run (the
//! `trace_diff` CLI in `crates/bench`) — every regression becomes a
//! replayable artifact.
//!
//! Three layers:
//!
//! * [`RecorderSink`] — a [`TraceSink`] that streams header + records to
//!   any `io::Write` using [`JsonlSink`]'s latched-error plumbing (an
//!   observability failure never aborts a simulation).
//! * Arrival traces ([`ARRIVAL_SCHEMA`]) — [`render_arrival_trace`] /
//!   [`parse_arrival_trace`] turn a captured job stream into a workload
//!   that replays bit-identically against policy changes.
//! * [`check_replay`] — re-run a parsed segment's spec and compare the
//!   replayed stream element-wise against the recorded one.
//!
//! Parsing never panics: every malformed input — truncated JSONL,
//! unknown schema version, out-of-order arrivals, duplicate job ids, an
//! invalid admission budget — is a typed [`ReplayError`].

use std::io;
use std::sync::Arc;

use split_exec::QpuModel;

use crate::admission::TokenBucketConfig;
use crate::cache::{AdmissionPolicy, EvictionPolicyKind};
use crate::event::{Event, EventKind};
use crate::fleet::FleetConfig;
use crate::job::Job;
use crate::json::{self, JsonValue, ParseError};
use crate::metrics::SimReport;
use crate::scheduler::{LaneOrder, SchedulerSpec};
use crate::sim::{PercentileMode, SimConfig, TraceRecord, WorkloadMode};
use crate::sweep::{run_cell, AdmissionSpec, CellSpec};
use crate::telemetry::{FanoutSink, JsonlSink, TraceSink, VecSink};
use crate::tenant::{TenantId, TenantMeta};
use crate::workload::Workload;

/// Schema tag carried by every flight-record header line.
pub const FLIGHT_SCHEMA: &str = "sx-flight-record/v3";

/// Schema tag carried by every arrival-trace header line.
pub const ARRIVAL_SCHEMA: &str = "sx-arrival-trace/v1";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a flight record or arrival trace could not be parsed.
///
/// Line numbers are 1-based positions in the input text.
#[derive(Debug)]
pub enum ReplayError {
    /// The input held no header and no records at all.
    Empty,
    /// A header line declared a schema this build does not understand.
    UnknownSchema {
        /// The schema tag found in the input.
        found: String,
        /// The schema tag this build expects.
        expected: &'static str,
    },
    /// A line was not valid JSON (e.g. a truncated final line).
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying JSON parse failure.
        source: ParseError,
    },
    /// A field was missing, had the wrong type, or held an invalid value.
    Field {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A trace record carried an unrecognized `"kind"`.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The unrecognized kind tag.
        kind: String,
    },
    /// A job arrived earlier than its predecessor in the trace.
    OutOfOrderArrival {
        /// 1-based line number of the offending job.
        line: usize,
        /// The previous job's arrival time.
        prev: f64,
        /// The offending (earlier) arrival time.
        next: f64,
    },
    /// A job id appeared twice.
    DuplicateJobId {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated id.
        id: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "no flight-record or trace content found"),
            ReplayError::UnknownSchema { found, expected } => {
                write!(f, "unknown schema {found:?} (this build reads {expected:?})")
            }
            ReplayError::Json { line, source } => {
                write!(f, "line {line}: invalid JSON: {source}")
            }
            ReplayError::Field {
                line,
                field,
                reason,
            } => write!(f, "line {line}: field {field:?}: {reason}"),
            ReplayError::UnknownKind { line, kind } => {
                write!(f, "line {line}: unknown record kind {kind:?}")
            }
            ReplayError::OutOfOrderArrival { line, prev, next } => write!(
                f,
                "line {line}: out-of-order arrival {next} after {prev} (arrivals must be non-decreasing)"
            ),
            ReplayError::DuplicateJobId { line, id } => {
                write!(f, "line {line}: duplicate job id {id}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Json { source, .. } => Some(source),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Typed field access over the hand-rolled JSON tree
// ---------------------------------------------------------------------------

/// Human label for a JSON value's type, for error messages.
fn type_name(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "bool",
        JsonValue::Num(_) => "number",
        JsonValue::Str(_) => "string",
        JsonValue::Array(_) => "array",
        JsonValue::Object(_) => "object",
    }
}

fn field_err(line: usize, field: &'static str, reason: impl Into<String>) -> ReplayError {
    ReplayError::Field {
        line,
        field,
        reason: reason.into(),
    }
}

fn req<'a>(
    line: usize,
    value: &'a JsonValue,
    field: &'static str,
) -> Result<&'a JsonValue, ReplayError> {
    value
        .get(field)
        .ok_or_else(|| field_err(line, field, "missing"))
}

fn num_field(line: usize, value: &JsonValue, field: &'static str) -> Result<f64, ReplayError> {
    match req(line, value, field)? {
        JsonValue::Num(n) => Ok(*n),
        other => Err(field_err(
            line,
            field,
            format!("expected number, found {}", type_name(other)),
        )),
    }
}

/// A number field that must also be finite (the event queue rejects
/// non-finite times, so letting one through would turn a malformed input
/// into a panic downstream).
fn finite_field(line: usize, value: &JsonValue, field: &'static str) -> Result<f64, ReplayError> {
    let n = num_field(line, value, field)?;
    if n.is_finite() {
        Ok(n)
    } else {
        Err(field_err(line, field, "must be finite"))
    }
}

fn usize_field(line: usize, value: &JsonValue, field: &'static str) -> Result<usize, ReplayError> {
    let n = num_field(line, value, field)?;
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
        Ok(n as usize)
    } else {
        Err(field_err(
            line,
            field,
            format!("expected non-negative integer, found {n}"),
        ))
    }
}

/// `u64` values (seeds, digests, topology keys) travel as decimal strings:
/// they exceed the 2^53 range a JSON number can carry exactly.
fn u64_field(line: usize, value: &JsonValue, field: &'static str) -> Result<u64, ReplayError> {
    match req(line, value, field)? {
        JsonValue::Str(s) => s
            .parse::<u64>()
            .map_err(|_| field_err(line, field, format!("expected u64 string, found {s:?}"))),
        other => Err(field_err(
            line,
            field,
            format!("expected u64 string, found {}", type_name(other)),
        )),
    }
}

fn bool_field(line: usize, value: &JsonValue, field: &'static str) -> Result<bool, ReplayError> {
    match req(line, value, field)? {
        JsonValue::Bool(b) => Ok(*b),
        other => Err(field_err(
            line,
            field,
            format!("expected bool, found {}", type_name(other)),
        )),
    }
}

fn str_field<'a>(
    line: usize,
    value: &'a JsonValue,
    field: &'static str,
) -> Result<&'a str, ReplayError> {
    match req(line, value, field)? {
        JsonValue::Str(s) => Ok(s.as_str()),
        other => Err(field_err(
            line,
            field,
            format!("expected string, found {}", type_name(other)),
        )),
    }
}

fn array_field<'a>(
    line: usize,
    value: &'a JsonValue,
    field: &'static str,
) -> Result<&'a [JsonValue], ReplayError> {
    match req(line, value, field)? {
        JsonValue::Array(items) => Ok(items.as_slice()),
        other => Err(field_err(
            line,
            field,
            format!("expected array, found {}", type_name(other)),
        )),
    }
}

/// `deadline`-style fields: `null` means absent, a finite number means set.
fn opt_finite_field(
    line: usize,
    value: &JsonValue,
    field: &'static str,
) -> Result<Option<f64>, ReplayError> {
    match req(line, value, field)? {
        JsonValue::Null => Ok(None),
        JsonValue::Num(n) if n.is_finite() => Ok(Some(*n)),
        JsonValue::Num(_) => Err(field_err(line, field, "must be finite")),
        other => Err(field_err(
            line,
            field,
            format!("expected number or null, found {}", type_name(other)),
        )),
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit: dependency-free, deterministic across platforms.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A stable 64-bit fingerprint of a fleet configuration.
///
/// Two runs with equal fingerprints were simulated against identical racks
/// (same device count, generations, fault rates, cache bounds and fault
/// seed) — the quick header-level compatibility check `trace_diff` surfaces
/// before walking records.
pub fn fleet_fingerprint(config: &FleetConfig) -> u64 {
    let mut fnv = Fnv::new();
    // `FleetConfig`'s Debug form is deterministic and covers every field;
    // hashing it means a new field can never silently escape the
    // fingerprint.
    fnv.write(format!("{config:?}").as_bytes());
    fnv.finish()
}

/// A stable 64-bit digest of a workload: every tenant and every job field
/// participates (float fields by their exact bit patterns), so two equal
/// digests mean bit-identical job streams.
pub fn workload_digest(workload: &Workload) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_u64(workload.tenants.len() as u64);
    for tenant in &workload.tenants {
        fnv.write_u64(tenant.id.index() as u64);
        fnv.write(tenant.name.as_bytes());
        fnv.write_f64(tenant.weight);
    }
    fnv.write_u64(workload.jobs.len() as u64);
    for job in &workload.jobs {
        fnv.write_u64(job.id as u64);
        fnv.write_u64(job.tenant.index() as u64);
        fnv.write(job.family.as_bytes());
        fnv.write_u64(job.lps as u64);
        fnv.write_u64(job.topology_key);
        fnv.write_f64(job.arrival);
        match job.deadline {
            Some(d) => {
                fnv.write_u64(1);
                fnv.write_f64(d);
            }
            None => fnv.write_u64(0),
        }
    }
    fnv.finish()
}

// ---------------------------------------------------------------------------
// Scheduler spec <-> JSON
// ---------------------------------------------------------------------------

/// The flight-record codec of a [`SchedulerSpec`].
impl SchedulerSpec {
    /// The spec as a flat JSON object (the header's `"scheduler"` field).
    pub fn to_json(&self) -> JsonValue {
        match self {
            SchedulerSpec::Fifo => JsonValue::object([("policy", JsonValue::from("fifo"))]),
            SchedulerSpec::CacheAffinity => {
                JsonValue::object([("policy", JsonValue::from("affinity"))])
            }
            SchedulerSpec::EarliestDeadlineFirst => {
                JsonValue::object([("policy", JsonValue::from("edf"))])
            }
            SchedulerSpec::ShortestPredictedFirst { aging_weight } => JsonValue::object([
                ("policy", JsonValue::from("spjf")),
                ("aging_weight", JsonValue::from(*aging_weight)),
            ]),
            SchedulerSpec::WeightedFair {
                weights,
                lane_order,
            } => JsonValue::object([
                ("policy", JsonValue::from("wfq")),
                (
                    "weights",
                    JsonValue::array(weights.iter().map(|w| JsonValue::from(*w))),
                ),
                (
                    "lane_order",
                    JsonValue::from(match lane_order {
                        LaneOrder::EarliestDeadline => "edf",
                        LaneOrder::Fifo => "fifo",
                    }),
                ),
            ]),
        }
    }

    /// Parse a spec back out of the header's `"scheduler"` object.
    pub fn from_json(line: usize, value: &JsonValue) -> Result<Self, ReplayError> {
        match str_field(line, value, "policy")? {
            "fifo" => Ok(SchedulerSpec::Fifo),
            "affinity" => Ok(SchedulerSpec::CacheAffinity),
            "edf" => Ok(SchedulerSpec::EarliestDeadlineFirst),
            "spjf" => {
                let aging_weight = finite_field(line, value, "aging_weight")?;
                Ok(SchedulerSpec::ShortestPredictedFirst { aging_weight })
            }
            "wfq" => {
                let raw = array_field(line, value, "weights")?;
                let mut weights = Vec::with_capacity(raw.len());
                for item in raw {
                    match item {
                        JsonValue::Num(n) if n.is_finite() => weights.push(*n),
                        other => {
                            return Err(field_err(
                                line,
                                "weights",
                                format!("expected finite numbers, found {}", type_name(other)),
                            ))
                        }
                    }
                }
                let lane_order = match str_field(line, value, "lane_order")? {
                    "edf" => LaneOrder::EarliestDeadline,
                    "fifo" => LaneOrder::Fifo,
                    other => {
                        return Err(field_err(
                            line,
                            "lane_order",
                            format!("expected \"edf\" or \"fifo\", found {other:?}"),
                        ))
                    }
                };
                Ok(SchedulerSpec::WeightedFair {
                    weights,
                    lane_order,
                })
            }
            other => Err(field_err(
                line,
                "policy",
                format!("unknown policy {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Config / workload <-> JSON
// ---------------------------------------------------------------------------

fn qpu_model_to_json(model: QpuModel) -> JsonValue {
    JsonValue::from(model.name())
}

fn qpu_model_from_name(
    line: usize,
    field: &'static str,
    name: &str,
) -> Result<QpuModel, ReplayError> {
    match name {
        "vesuvius" => Ok(QpuModel::Vesuvius),
        "dw2x" => Ok(QpuModel::Dw2x),
        other => Err(field_err(
            line,
            field,
            format!("unknown QPU model {other:?}"),
        )),
    }
}

fn fleet_to_json(config: &FleetConfig) -> JsonValue {
    JsonValue::object([
        ("qpus", JsonValue::from(config.qpus)),
        ("qpu_model", qpu_model_to_json(config.qpu_model)),
        (
            "models",
            JsonValue::array(config.models.iter().map(|m| qpu_model_to_json(*m))),
        ),
        (
            "cache_capacity",
            match config.cache_capacity {
                Some(n) => JsonValue::from(n),
                None => JsonValue::Null,
            },
        ),
        ("eviction", JsonValue::from(config.eviction.name())),
        (
            "cache_admission",
            JsonValue::from(config.cache_admission.name()),
        ),
        ("qubit_fault_rate", JsonValue::from(config.qubit_fault_rate)),
        (
            "coupler_fault_rate",
            JsonValue::from(config.coupler_fault_rate),
        ),
        ("seed", JsonValue::from(config.seed.to_string())),
    ])
}

fn fleet_from_json(line: usize, value: &JsonValue) -> Result<FleetConfig, ReplayError> {
    let qpus = usize_field(line, value, "qpus")?;
    if qpus == 0 {
        return Err(field_err(line, "qpus", "a fleet needs at least one QPU"));
    }
    let qpu_model = qpu_model_from_name(line, "qpu_model", str_field(line, value, "qpu_model")?)?;
    let raw_models = array_field(line, value, "models")?;
    let mut models = Vec::with_capacity(raw_models.len());
    for item in raw_models {
        match item {
            JsonValue::Str(s) => models.push(qpu_model_from_name(line, "models", s)?),
            other => {
                return Err(field_err(
                    line,
                    "models",
                    format!("expected strings, found {}", type_name(other)),
                ))
            }
        }
    }
    let cache_capacity = match req(line, value, "cache_capacity")? {
        JsonValue::Null => None,
        _ => Some(usize_field(line, value, "cache_capacity")?),
    };
    let eviction = match str_field(line, value, "eviction")? {
        "lru" => EvictionPolicyKind::Lru,
        "cost-aware" => EvictionPolicyKind::CostAware,
        other => {
            return Err(field_err(
                line,
                "eviction",
                format!("unknown eviction policy {other:?}"),
            ))
        }
    };
    let cache_admission = match str_field(line, value, "cache_admission")? {
        "always" => AdmissionPolicy::Always,
        "second-chance" => AdmissionPolicy::SecondChance,
        other => {
            return Err(field_err(
                line,
                "cache_admission",
                format!("unknown cache admission policy {other:?}"),
            ))
        }
    };
    Ok(FleetConfig {
        qpus,
        qpu_model,
        models,
        cache_capacity,
        eviction,
        cache_admission,
        qubit_fault_rate: finite_field(line, value, "qubit_fault_rate")?,
        coupler_fault_rate: finite_field(line, value, "coupler_fault_rate")?,
        seed: u64_field(line, value, "seed")?,
    })
}

fn sim_config_to_json(config: &SimConfig) -> JsonValue {
    let mut obj = match config.mode {
        WorkloadMode::Open => JsonValue::object([("mode", JsonValue::from("open"))]),
        WorkloadMode::Closed { clients } => JsonValue::object([
            ("mode", JsonValue::from("closed")),
            ("clients", JsonValue::from(clients)),
        ]),
    };
    obj.push(
        "percentiles",
        JsonValue::from(match config.percentiles {
            PercentileMode::Exact => "exact",
            PercentileMode::Sketch => "sketch",
        }),
    );
    obj
}

fn sim_config_from_json(line: usize, value: &JsonValue) -> Result<SimConfig, ReplayError> {
    let mode = match str_field(line, value, "mode")? {
        "open" => WorkloadMode::Open,
        "closed" => WorkloadMode::Closed {
            clients: usize_field(line, value, "clients")?,
        },
        other => {
            return Err(field_err(
                line,
                "mode",
                format!("expected \"open\" or \"closed\", found {other:?}"),
            ))
        }
    };
    let percentiles = match str_field(line, value, "percentiles")? {
        "exact" => PercentileMode::Exact,
        "sketch" => PercentileMode::Sketch,
        other => {
            return Err(field_err(
                line,
                "percentiles",
                format!("expected \"exact\" or \"sketch\", found {other:?}"),
            ))
        }
    };
    Ok(SimConfig { mode, percentiles })
}

fn tenant_to_json(tenant: &TenantMeta) -> JsonValue {
    JsonValue::object([
        ("id", JsonValue::from(tenant.id.index())),
        ("name", JsonValue::from(tenant.name.as_str())),
        ("weight", JsonValue::from(tenant.weight)),
    ])
}

fn tenant_from_json(line: usize, value: &JsonValue) -> Result<TenantMeta, ReplayError> {
    Ok(TenantMeta {
        id: TenantId(usize_field(line, value, "id")?),
        name: str_field(line, value, "name")?.to_string(),
        weight: finite_field(line, value, "weight")?,
    })
}

fn job_to_json(job: &Job) -> JsonValue {
    JsonValue::object([
        ("id", JsonValue::from(job.id)),
        ("tenant", JsonValue::from(job.tenant.index())),
        ("family", JsonValue::from(job.family.as_ref())),
        ("lps", JsonValue::from(job.lps)),
        (
            "topology_key",
            JsonValue::from(job.topology_key.to_string()),
        ),
        ("arrival", JsonValue::from(job.arrival)),
        (
            "deadline",
            match job.deadline {
                Some(d) => JsonValue::from(d),
                None => JsonValue::Null,
            },
        ),
    ])
}

fn job_from_json(line: usize, value: &JsonValue) -> Result<Job, ReplayError> {
    Ok(Job {
        id: usize_field(line, value, "id")?,
        tenant: TenantId(usize_field(line, value, "tenant")?),
        family: Arc::from(str_field(line, value, "family")?),
        lps: usize_field(line, value, "lps")?,
        topology_key: u64_field(line, value, "topology_key")?,
        arrival: finite_field(line, value, "arrival")?,
        deadline: opt_finite_field(line, value, "deadline")?,
    })
}

/// Append one parsed job, enforcing the trace invariants: ids dense and in
/// submission order, arrivals non-decreasing, tenant indices in range.
fn push_job(
    jobs: &mut Vec<Job>,
    tenant_count: usize,
    job: Job,
    line: usize,
) -> Result<(), ReplayError> {
    if job.tenant.index() >= tenant_count {
        return Err(field_err(
            line,
            "tenant",
            format!(
                "index {} out of range for {tenant_count} declared tenants",
                job.tenant.index()
            ),
        ));
    }
    if job.id < jobs.len() {
        return Err(ReplayError::DuplicateJobId { line, id: job.id });
    }
    if job.id > jobs.len() {
        return Err(field_err(
            line,
            "id",
            format!(
                "job ids must be dense and in submission order (expected {}, found {})",
                jobs.len(),
                job.id
            ),
        ));
    }
    if let Some(prev) = jobs.last() {
        if job.arrival < prev.arrival {
            return Err(ReplayError::OutOfOrderArrival {
                line,
                prev: prev.arrival,
                next: job.arrival,
            });
        }
    }
    jobs.push(job);
    Ok(())
}

fn workload_to_json(workload: &Workload) -> JsonValue {
    JsonValue::object([
        (
            "tenants",
            JsonValue::array(workload.tenants.iter().map(tenant_to_json)),
        ),
        (
            "jobs",
            JsonValue::array(workload.jobs.iter().map(job_to_json)),
        ),
    ])
}

fn workload_from_json(line: usize, value: &JsonValue) -> Result<Workload, ReplayError> {
    let raw_tenants = array_field(line, value, "tenants")?;
    let mut tenants = Vec::with_capacity(raw_tenants.len());
    for item in raw_tenants {
        tenants.push(tenant_from_json(line, item)?);
    }
    let raw_jobs = array_field(line, value, "jobs")?;
    let mut jobs = Vec::with_capacity(raw_jobs.len());
    for item in raw_jobs {
        let job = job_from_json(line, item)?;
        push_job(&mut jobs, tenants.len(), job, line)?;
    }
    Ok(Workload { jobs, tenants })
}

fn bucket_to_json(config: &TokenBucketConfig) -> JsonValue {
    JsonValue::object([
        ("rate_hz", JsonValue::from(config.rate_hz)),
        ("burst", JsonValue::from(config.burst)),
        // A decimal string, like `seed`: "no depth limit" is `usize::MAX`,
        // past the 2^53 range a JSON number carries exactly.
        (
            "max_queue_depth",
            JsonValue::from(config.max_queue_depth.to_string()),
        ),
        (
            "max_defer_seconds",
            JsonValue::from(config.max_defer_seconds),
        ),
        ("shed_infeasible", JsonValue::from(config.shed_infeasible)),
    ])
}

/// Parse one bucket budget, running the same [`TokenBucketConfig::validate`]
/// check the controller's constructor does — so a hand-edited budget is a
/// typed error here, never a panic when the spec is built.
fn bucket_from_json(line: usize, value: &JsonValue) -> Result<TokenBucketConfig, ReplayError> {
    let max_queue_depth = usize::try_from(u64_field(line, value, "max_queue_depth")?)
        .map_err(|_| field_err(line, "max_queue_depth", "does not fit in usize"))?;
    let config = TokenBucketConfig {
        rate_hz: num_field(line, value, "rate_hz")?,
        burst: num_field(line, value, "burst")?,
        max_queue_depth,
        max_defer_seconds: num_field(line, value, "max_defer_seconds")?,
        shed_infeasible: bool_field(line, value, "shed_infeasible")?,
    };
    config
        .validate()
        .map_err(|reason| field_err(line, "admission", reason))?;
    Ok(config)
}

impl AdmissionSpec {
    /// The spec as a JSON object (the header's `"admission"` field): the
    /// controller kind plus, for a token bucket, every budget.
    pub fn to_json(&self) -> JsonValue {
        let kind = ("kind", JsonValue::from(self.name()));
        match self {
            AdmissionSpec::AdmitAll => JsonValue::object([kind]),
            AdmissionSpec::TokenBucket {
                default,
                per_tenant,
            } => JsonValue::object([
                kind,
                ("default", bucket_to_json(default)),
                (
                    "per_tenant",
                    JsonValue::array(per_tenant.iter().map(|(tenant, config)| {
                        JsonValue::object([
                            ("tenant", JsonValue::from(tenant.index())),
                            ("budget", bucket_to_json(config)),
                        ])
                    })),
                ),
            ]),
        }
    }

    /// Parse a spec back out of the header's `"admission"` object.
    pub fn from_json(line: usize, value: &JsonValue) -> Result<Self, ReplayError> {
        match str_field(line, value, "kind")? {
            "admit-all" => Ok(AdmissionSpec::AdmitAll),
            "token-bucket" => {
                let default = bucket_from_json(line, req(line, value, "default")?)?;
                let raw = array_field(line, value, "per_tenant")?;
                let mut per_tenant = Vec::with_capacity(raw.len());
                for item in raw {
                    per_tenant.push((
                        TenantId(usize_field(line, item, "tenant")?),
                        bucket_from_json(line, req(line, item, "budget")?)?,
                    ));
                }
                Ok(AdmissionSpec::TokenBucket {
                    default,
                    per_tenant,
                })
            }
            other => Err(field_err(
                line,
                "kind",
                format!("unknown admission kind {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Flight records: a `CellSpec` header line per run, then its trace
// ---------------------------------------------------------------------------

impl CellSpec {
    /// The spec as a flight-record header line: the schema tag, every
    /// field of the spec, and two integrity digests ([`fleet_fingerprint`],
    /// [`workload_digest`]) that parsing checks.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("schema", JsonValue::from(FLIGHT_SCHEMA)),
            ("label", JsonValue::from(self.label.as_str())),
            ("seed", JsonValue::from(self.seed.to_string())),
            (
                "fleet_fingerprint",
                JsonValue::from(fleet_fingerprint(&self.fleet).to_string()),
            ),
            (
                "workload_digest",
                JsonValue::from(workload_digest(&self.workload).to_string()),
            ),
            ("scheduler", self.scheduler.to_json()),
            ("admission", self.admission.to_json()),
            ("config", sim_config_to_json(&self.config)),
            ("fleet", fleet_to_json(&self.fleet)),
            ("workload", workload_to_json(&self.workload)),
        ])
    }

    /// Parse a header line, verifying the schema tag, both digests, and
    /// every value [`run_cell`] would otherwise refuse with a panic.
    pub fn from_json(line: usize, value: &JsonValue) -> Result<Self, ReplayError> {
        let schema = str_field(line, value, "schema")?;
        if schema != FLIGHT_SCHEMA {
            return Err(ReplayError::UnknownSchema {
                found: schema.to_string(),
                expected: FLIGHT_SCHEMA,
            });
        }
        let spec = CellSpec {
            label: str_field(line, value, "label")?.to_string(),
            seed: u64_field(line, value, "seed")?,
            fleet: fleet_from_json(line, req(line, value, "fleet")?)?,
            scheduler: SchedulerSpec::from_json(line, req(line, value, "scheduler")?)?,
            admission: AdmissionSpec::from_json(line, req(line, value, "admission")?)?,
            config: sim_config_from_json(line, req(line, value, "config")?)?,
            workload: Arc::new(workload_from_json(line, req(line, value, "workload")?)?),
        };
        if u64_field(line, value, "fleet_fingerprint")? != fleet_fingerprint(&spec.fleet) {
            return Err(field_err(
                line,
                "fleet_fingerprint",
                "does not match the embedded fleet config (corrupt or hand-edited record)",
            ));
        }
        if u64_field(line, value, "workload_digest")? != workload_digest(&spec.workload) {
            return Err(field_err(
                line,
                "workload_digest",
                "does not match the embedded workload (corrupt or hand-edited record)",
            ));
        }
        Ok(spec)
    }
}

/// One recorded run: its spec plus the complete trace that followed it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedRun {
    /// The run's description, parsed from its header line.
    pub spec: CellSpec,
    /// The run's trace records, in emission order.
    pub records: Vec<TraceRecord>,
}

/// A parsed flight record: one or more recorded runs (a single `--record`
/// file captures every primary run of a `cluster_sim` invocation — a
/// compare sweep records one segment per policy).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// The recorded runs, in file order.
    pub runs: Vec<RecordedRun>,
}

/// Parse a flight-record file: header lines (objects with a `"schema"`
/// key) open a new run, every other line is a trace record of the run in
/// progress.  Blank lines are ignored; anything else is a typed error.
pub fn parse_flight_record(text: &str) -> Result<FlightRecord, ReplayError> {
    let mut runs: Vec<RecordedRun> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value = json::parse(trimmed).map_err(|source| ReplayError::Json { line, source })?;
        if value.get("schema").is_some() {
            runs.push(RecordedRun {
                spec: CellSpec::from_json(line, &value)?,
                records: Vec::new(),
            });
        } else {
            let Some(run) = runs.last_mut() else {
                return Err(field_err(
                    line,
                    "schema",
                    "trace record before any flight-record header",
                ));
            };
            run.records.push(record_from_json(line, &value)?);
        }
    }
    if runs.is_empty() {
        return Err(ReplayError::Empty);
    }
    Ok(FlightRecord { runs })
}

/// Parse one trace-record line (the inverse of [`TraceRecord::to_json`]).
fn record_from_json(line: usize, value: &JsonValue) -> Result<TraceRecord, ReplayError> {
    let time = finite_field(line, value, "t")?;
    match str_field(line, value, "kind")? {
        "fired" => {
            let seq = usize_field(line, value, "seq")? as u64;
            let kind = match str_field(line, value, "event")? {
                "arrival" => EventKind::JobArrival {
                    job: usize_field(line, value, "job")?,
                },
                "completion" => EventKind::JobCompletion {
                    qpu: usize_field(line, value, "qpu")?,
                    job: usize_field(line, value, "job")?,
                },
                other => {
                    return Err(field_err(
                        line,
                        "event",
                        format!("expected \"arrival\" or \"completion\", found {other:?}"),
                    ))
                }
            };
            Ok(TraceRecord::Fired(Event { time, seq, kind }))
        }
        "dispatched" => Ok(TraceRecord::Dispatched {
            time,
            job: usize_field(line, value, "job")?,
            qpu: usize_field(line, value, "qpu")?,
            tenant: TenantId(usize_field(line, value, "tenant")?),
            warm: bool_field(line, value, "warm")?,
            finish: finite_field(line, value, "finish")?,
            stage1_seconds: finite_field(line, value, "stage1_seconds")?,
            stage2_seconds: finite_field(line, value, "stage2_seconds")?,
            stage3_seconds: finite_field(line, value, "stage3_seconds")?,
        }),
        "rejected" => Ok(TraceRecord::Rejected {
            time,
            job: usize_field(line, value, "job")?,
        }),
        "shed" => Ok(TraceRecord::Shed {
            time,
            job: usize_field(line, value, "job")?,
            tenant: TenantId(usize_field(line, value, "tenant")?),
            infeasible: bool_field(line, value, "infeasible")?,
        }),
        "deferred" => Ok(TraceRecord::Deferred {
            time,
            job: usize_field(line, value, "job")?,
            until: finite_field(line, value, "until")?,
        }),
        other => Err(ReplayError::UnknownKind {
            line,
            kind: other.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------------
// RecorderSink
// ---------------------------------------------------------------------------

/// A [`TraceSink`] that streams a flight record to any [`io::Write`]:
/// call [`Self::begin_run`] with the run's spec, then attach the sink to
/// the engine — every record becomes one JSONL line.  Reuses
/// [`JsonlSink`]'s latched-error plumbing: I/O failures are counted and
/// latched ([`Self::take_error`] / [`Self::finish`]), never raised into
/// the engine.
///
/// One sink can record many runs back-to-back (one `begin_run` per run);
/// [`parse_flight_record`] splits them back apart.
#[derive(Debug)]
pub struct RecorderSink<W: io::Write> {
    inner: JsonlSink<W>,
}

impl<W: io::Write> RecorderSink<W> {
    /// A recorder writing to `out`.
    pub fn new(out: W) -> Self {
        Self {
            inner: JsonlSink::new(out),
        }
    }

    /// Open a new run segment by writing `spec` as its header line.  Must
    /// be called before the run's first record; may be called again for
    /// each subsequent run recorded into the same file.
    pub fn begin_run(&mut self, spec: &CellSpec) {
        self.inner.write_value(&spec.to_json());
    }

    /// Lines (headers + records) successfully written.
    pub fn lines(&self) -> usize {
        self.inner.lines()
    }

    /// Write failures latched so far.
    pub fn write_errors(&self) -> usize {
        self.inner.write_errors()
    }

    /// The first latched write failure, if any, leaving the latch empty.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.inner.take_error()
    }

    /// Flush and return the underlying writer, discarding any latched
    /// error; use [`Self::finish`] to observe failures instead.
    pub fn into_inner(self) -> W {
        self.inner.into_inner()
    }

    /// Flush and dismantle the recorder, reporting the first latched
    /// failure: `Ok((writer, lines))` only if every line landed.
    pub fn finish(self) -> Result<(W, usize), io::Error> {
        self.inner.finish()
    }
}

impl<W: io::Write> TraceSink for RecorderSink<W> {
    // sx-lint: hot-exempt -- streaming serialization is this sink's whole policy; NullSink is the perf default
    fn on_record(&mut self, record: &TraceRecord, vclock: f64) {
        self.inner.on_record(record, vclock);
    }

    fn name(&self) -> &'static str {
        "recorder"
    }
}

// ---------------------------------------------------------------------------
// Arrival traces: recorded workloads as just another workload source
// ---------------------------------------------------------------------------

/// Render a workload as an arrival trace: one [`ARRIVAL_SCHEMA`] header
/// line (tenant table + job count), then one line per job in submission
/// order.  [`parse_arrival_trace`] inverts this bit-identically.
pub fn render_arrival_trace(workload: &Workload) -> String {
    let header = JsonValue::object([
        ("schema", JsonValue::from(ARRIVAL_SCHEMA)),
        ("jobs", JsonValue::from(workload.jobs.len())),
        (
            "tenants",
            JsonValue::array(workload.tenants.iter().map(tenant_to_json)),
        ),
    ]);
    let mut out = header.to_string();
    out.push('\n');
    for job in &workload.jobs {
        out.push_str(&job_to_json(job).to_string());
        out.push('\n');
    }
    out
}

/// Parse an arrival trace back into a [`Workload`], enforcing the trace
/// invariants: matching schema, dense in-order job ids, non-decreasing
/// arrivals, tenant indices within the declared tenant table, and a job
/// count matching the header's declaration (so a truncated file is a typed
/// error, not a silently shorter workload).
pub fn parse_arrival_trace(text: &str) -> Result<Workload, ReplayError> {
    let mut header: Option<(usize, Vec<TenantMeta>)> = None;
    let mut jobs: Vec<Job> = Vec::new();
    let mut last_line = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        last_line = line;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value = json::parse(trimmed).map_err(|source| ReplayError::Json { line, source })?;
        match &header {
            None => {
                let Some(schema) = value.get("schema") else {
                    return Err(field_err(
                        line,
                        "schema",
                        "first line must be the arrival-trace header",
                    ));
                };
                let schema = match schema {
                    JsonValue::Str(s) => s.as_str(),
                    other => {
                        return Err(field_err(
                            line,
                            "schema",
                            format!("expected string, found {}", type_name(other)),
                        ))
                    }
                };
                if schema != ARRIVAL_SCHEMA {
                    return Err(ReplayError::UnknownSchema {
                        found: schema.to_string(),
                        expected: ARRIVAL_SCHEMA,
                    });
                }
                let declared = usize_field(line, &value, "jobs")?;
                let raw_tenants = array_field(line, &value, "tenants")?;
                let mut tenants = Vec::with_capacity(raw_tenants.len());
                for item in raw_tenants {
                    tenants.push(tenant_from_json(line, item)?);
                }
                jobs.reserve(declared);
                header = Some((declared, tenants));
            }
            Some((_, tenants)) => {
                let job = job_from_json(line, &value)?;
                push_job(&mut jobs, tenants.len(), job, line)?;
            }
        }
    }
    let Some((declared, tenants)) = header else {
        return Err(ReplayError::Empty);
    };
    if jobs.len() != declared {
        return Err(field_err(
            last_line.max(1),
            "jobs",
            format!(
                "header declares {declared} jobs but the trace contains {} (truncated file?)",
                jobs.len()
            ),
        ));
    }
    Ok(Workload { jobs, tenants })
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The outcome of replaying a recorded run and comparing streams.
#[derive(Debug)]
pub struct ReplayCheck {
    /// Records compared (the shorter of the two streams).
    pub compared: usize,
    /// Index of the first divergent record, `None` when the replay is
    /// bit-identical.  A length mismatch diverges at the shorter length.
    pub divergence: Option<usize>,
    /// The replayed stream, in emission order.
    pub replayed: Vec<TraceRecord>,
    /// The replayed run's report.
    pub report: SimReport,
}

/// Re-run `run`'s recorded spec through [`run_cell`] — the path every run
/// takes — with `sink` attached beside the comparison buffer, and compare
/// the replayed stream element-wise against the recorded one.  The
/// determinism contract makes the replay bit-identical to an untampered
/// record; `sink` lets the caller re-record or trace the replay.
pub fn check_replay(run: &RecordedRun, sink: &mut dyn TraceSink) -> ReplayCheck {
    let mut buffer = VecSink::new();
    let result = run_cell(0, &run.spec, &mut FanoutSink::new(&mut buffer, sink));
    let replayed = buffer.into_trace();
    let compared = run.records.len().min(replayed.len());
    let mut divergence = (0..compared).find(|&i| run.records[i] != replayed[i]);
    if divergence.is_none() && run.records.len() != replayed.len() {
        divergence = Some(compared);
    }
    ReplayCheck {
        compared,
        divergence,
        replayed,
        report: result.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NullSink;

    fn tiny_workload(n: usize) -> Workload {
        let jobs = (0..n)
            .map(|i| Job {
                id: i,
                tenant: TenantId(0),
                family: Arc::from(format!("fam-{}", i % 3).as_str()),
                lps: 8 + (i % 3),
                topology_key: (i % 3) as u64 + 17,
                arrival: i as f64 * 0.5,
                deadline: if i % 2 == 0 {
                    Some(i as f64 * 0.5 + 40.0)
                } else {
                    None
                },
            })
            .collect();
        Workload::single_tenant(jobs)
    }

    fn small_cell(seed: u64, scheduler: SchedulerSpec) -> CellSpec {
        CellSpec {
            label: format!("s{seed}/{}", scheduler.name()),
            seed,
            fleet: FleetConfig {
                qpus: 2,
                seed,
                ..FleetConfig::default()
            },
            scheduler,
            admission: AdmissionSpec::AdmitAll,
            config: SimConfig::default(),
            workload: Arc::new(tiny_workload(8)),
        }
    }

    /// A token bucket with a per-tenant override and the "no depth limit"
    /// `usize::MAX`.
    fn token_bucket_cell(seed: u64) -> CellSpec {
        let tight = TokenBucketConfig {
            rate_hz: 0.5,
            burst: 1.0,
            max_queue_depth: usize::MAX,
            max_defer_seconds: 3.0,
            shed_infeasible: true,
        };
        CellSpec {
            admission: AdmissionSpec::TokenBucket {
                default: TokenBucketConfig::default(),
                per_tenant: vec![(TenantId(0), tight)],
            },
            ..small_cell(seed, SchedulerSpec::Fifo)
        }
    }

    fn record_run(spec: &CellSpec) -> String {
        let mut recorder = RecorderSink::new(Vec::<u8>::new());
        recorder.begin_run(spec);
        run_cell(0, spec, &mut recorder);
        let (bytes, lines) = recorder.finish().expect("in-memory writes cannot fail");
        assert!(lines > 1, "header plus at least one record");
        String::from_utf8(bytes).expect("utf8")
    }

    #[test]
    fn scheduler_specs_round_trip_through_json() {
        let specs = [
            SchedulerSpec::Fifo,
            SchedulerSpec::CacheAffinity,
            SchedulerSpec::EarliestDeadlineFirst,
            SchedulerSpec::ShortestPredictedFirst { aging_weight: 0.25 },
            SchedulerSpec::WeightedFair {
                weights: vec![1.0, 3.5],
                lane_order: LaneOrder::Fifo,
            },
            SchedulerSpec::WeightedFair {
                weights: vec![],
                lane_order: LaneOrder::EarliestDeadline,
            },
        ];
        for spec in specs {
            let rendered = spec.to_json().to_string();
            let parsed = json::parse(&rendered).expect("valid JSON");
            let back = SchedulerSpec::from_json(1, &parsed).expect("round trip");
            assert_eq!(back, spec);
            assert_eq!(back.name(), spec.build().name(), "spec names its scheduler");
        }
    }

    #[test]
    fn cell_spec_header_round_trips_through_json() {
        let admit_all = small_cell(
            42,
            SchedulerSpec::WeightedFair {
                weights: vec![2.0, 1.0],
                lane_order: LaneOrder::Fifo,
            },
        );
        let bucket = token_bucket_cell(43);
        for spec in [admit_all, bucket] {
            let rendered = spec.to_json().to_string();
            assert!(rendered.starts_with(r#"{"schema":"sx-flight-record/v3","#));
            assert!(!rendered.contains("sample_interval"), "{rendered}");
            let parsed = json::parse(&rendered).expect("valid JSON");
            let back = CellSpec::from_json(1, &parsed).expect("round trip");
            assert_eq!(back, spec);
            // Re-rendering is byte-identical: trace_diff can compare raw lines.
            assert_eq!(back.to_json().to_string(), rendered);
        }
    }

    #[test]
    fn recorded_run_replays_bit_identically() {
        let spec = small_cell(7, SchedulerSpec::CacheAffinity);
        let text = record_run(&spec);
        let flight = parse_flight_record(&text).expect("parses");
        assert_eq!(flight.runs.len(), 1);
        let run = &flight.runs[0];
        assert_eq!(run.spec, spec);
        assert!(!run.records.is_empty());
        let check = check_replay(run, &mut NullSink);
        assert_eq!(check.divergence, None, "replay must be bit-identical");
        assert_eq!(check.compared, run.records.len());
    }

    #[test]
    fn multi_segment_records_split_into_runs() {
        let a = small_cell(3, SchedulerSpec::Fifo);
        let b = small_cell(4, SchedulerSpec::EarliestDeadlineFirst);
        let text = format!("{}{}", record_run(&a), record_run(&b));
        let flight = parse_flight_record(&text).expect("parses");
        assert_eq!(flight.runs.len(), 2);
        assert_eq!(flight.runs[0].spec.seed, 3);
        assert_eq!(flight.runs[1].spec.seed, 4);
        for run in &flight.runs {
            assert_eq!(check_replay(run, &mut NullSink).divergence, None);
        }
    }

    #[test]
    fn a_perturbed_record_diverges_at_a_definite_index() {
        let text = record_run(&small_cell(11, SchedulerSpec::Fifo));
        let mut flight = parse_flight_record(&text).expect("parses");
        let run = &mut flight.runs[0];
        // Tamper with one mid-stream record.
        let mid = run.records.len() / 2;
        if let TraceRecord::Fired(event) = &mut run.records[mid] {
            event.time += 0.125;
        } else {
            run.records[mid] = TraceRecord::Rejected {
                time: 0.0,
                job: 9999,
            };
        }
        let check = check_replay(run, &mut NullSink);
        assert_eq!(check.divergence, Some(mid));
        assert_ne!(run.records[mid], check.replayed[mid]);
    }

    #[test]
    fn truncated_records_diverge_at_the_missing_suffix() {
        let text = record_run(&small_cell(12, SchedulerSpec::Fifo));
        let mut flight = parse_flight_record(&text).expect("parses");
        let run = &mut flight.runs[0];
        let keep = run.records.len() - 2;
        run.records.truncate(keep);
        let check = check_replay(run, &mut NullSink);
        assert_eq!(check.divergence, Some(keep));
    }

    #[test]
    fn arrival_traces_round_trip_bit_identically() {
        let workload = tiny_workload(10);
        let text = render_arrival_trace(&workload);
        let back = parse_arrival_trace(&text).expect("parses");
        assert_eq!(back, workload);
        // Render → parse → render is byte-stable.
        assert_eq!(render_arrival_trace(&back), text);
    }

    #[test]
    fn generated_workloads_round_trip_as_arrival_traces() {
        let spec = crate::workload::WorkloadSpec::repeated_topologies(12, 2.0, 9);
        let direct = spec.try_generate().expect("valid spec");
        let text = render_arrival_trace(&direct);
        assert_eq!(parse_arrival_trace(&text).expect("parses"), direct);
    }

    #[test]
    fn workload_digest_separates_unequal_workloads() {
        let a = tiny_workload(8);
        let mut b = tiny_workload(8);
        b.jobs[3].arrival += 1e-9;
        assert_ne!(workload_digest(&a), workload_digest(&b));
        assert_eq!(workload_digest(&a), workload_digest(&tiny_workload(8)));
        let fa = FleetConfig::default();
        let fb = FleetConfig {
            seed: 1,
            ..FleetConfig::default()
        };
        assert_ne!(fleet_fingerprint(&fa), fleet_fingerprint(&fb));
    }

    // -- malformed inputs: typed errors, never panics --------------------

    #[test]
    fn truncated_jsonl_mid_record_is_a_json_error() {
        let text = record_run(&small_cell(6, SchedulerSpec::Fifo));
        // Chop the file mid-way through its final line.
        let cut = text.trim_end().len() - 10;
        let err = parse_flight_record(&text[..cut]).expect_err("must fail");
        match err {
            ReplayError::Json { line, .. } => assert!(line > 1),
            other => panic!("expected Json error, got {other}"),
        }
    }

    #[test]
    fn unknown_schema_versions_are_refused() {
        for found in [
            "sx-flight-record/v999",
            "sx-flight-record/v1",
            "sx-flight-record/v2",
        ] {
            let err =
                parse_flight_record(&format!(r#"{{"schema":"{found}"}}"#)).expect_err("must fail");
            match err {
                ReplayError::UnknownSchema {
                    found: got,
                    expected,
                } => {
                    assert_eq!(got, found);
                    assert_eq!(expected, FLIGHT_SCHEMA);
                }
                other => panic!("expected UnknownSchema, got {other}"),
            }
        }
        let err = parse_arrival_trace(r#"{"schema":"sx-arrival-trace/v0","jobs":0,"tenants":[]}"#)
            .expect_err("must fail");
        assert!(matches!(err, ReplayError::UnknownSchema { .. }));
    }

    #[test]
    fn out_of_order_arrivals_are_a_typed_error() {
        let mut workload = tiny_workload(4);
        workload.jobs[2].arrival = 0.1; // earlier than job 1's 0.5
        let text = render_arrival_trace(&workload);
        let err = parse_arrival_trace(&text).expect_err("must fail");
        match err {
            ReplayError::OutOfOrderArrival { line, prev, next } => {
                assert_eq!(line, 4, "job 2 sits on line 4 (header + jobs 0..2)");
                assert_eq!(prev, 0.5);
                assert_eq!(next, 0.1);
            }
            other => panic!("expected OutOfOrderArrival, got {other}"),
        }
    }

    #[test]
    fn duplicate_job_ids_are_a_typed_error() {
        let mut workload = tiny_workload(4);
        workload.jobs[3].id = 1;
        workload.jobs[3].arrival = workload.jobs[2].arrival;
        let text = render_arrival_trace(&workload);
        let err = parse_arrival_trace(&text).expect_err("must fail");
        match err {
            ReplayError::DuplicateJobId { line, id } => {
                assert_eq!(line, 5);
                assert_eq!(id, 1);
            }
            other => panic!("expected DuplicateJobId, got {other}"),
        }
    }

    #[test]
    fn truncated_arrival_traces_are_caught_by_the_declared_count() {
        let workload = tiny_workload(6);
        let text = render_arrival_trace(&workload);
        // Drop the last complete line (a clean truncation: every remaining
        // line still parses, only the count betrays it).
        let trimmed = text.trim_end();
        let cut = trimmed.rfind('\n').expect("multi-line");
        let err = parse_arrival_trace(&trimmed[..cut]).expect_err("must fail");
        match err {
            ReplayError::Field { field, reason, .. } => {
                assert_eq!(field, "jobs");
                assert!(reason.contains("declares 6"), "got: {reason}");
            }
            other => panic!("expected Field error, got {other}"),
        }
    }

    #[test]
    fn records_before_any_header_are_refused() {
        let err =
            parse_flight_record(r#"{"t":0.0,"kind":"rejected","job":0}"#).expect_err("must fail");
        assert!(matches!(err, ReplayError::Field { .. }));
        assert!(matches!(parse_flight_record(""), Err(ReplayError::Empty)));
        assert!(matches!(
            parse_arrival_trace("\n\n"),
            Err(ReplayError::Empty)
        ));
    }

    #[test]
    fn unknown_record_kinds_are_a_typed_error() {
        let mut text = record_run(&small_cell(2, SchedulerSpec::Fifo));
        text.push_str("{\"t\":1.0,\"kind\":\"teleported\",\"job\":0}\n");
        let err = parse_flight_record(&text).expect_err("must fail");
        match err {
            ReplayError::UnknownKind { kind, .. } => assert_eq!(kind, "teleported"),
            other => panic!("expected UnknownKind, got {other}"),
        }
    }

    #[test]
    fn tampered_digests_are_an_integrity_error() {
        let spec = small_cell(13, SchedulerSpec::Fifo);
        let rendered = spec.to_json().to_string();
        let digest = workload_digest(&spec.workload);
        let tampered = rendered.replacen(&format!("\"{digest}\""), "\"12345\"", 1);
        assert_ne!(tampered, rendered, "digest must appear in the header");
        let parsed = json::parse(&tampered).expect("still valid JSON");
        let err = CellSpec::from_json(1, &parsed).expect_err("must fail");
        match err {
            ReplayError::Field { field, .. } => assert_eq!(field, "workload_digest"),
            other => panic!("expected Field error, got {other}"),
        }
    }

    #[test]
    fn error_display_names_the_line() {
        let err = ReplayError::OutOfOrderArrival {
            line: 7,
            prev: 2.0,
            next: 1.0,
        };
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "got: {msg}");
        let err = ReplayError::Json {
            line: 3,
            source: json::parse("{").expect_err("invalid"),
        };
        assert!(err.to_string().contains("line 3"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
