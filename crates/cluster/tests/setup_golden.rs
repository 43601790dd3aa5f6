//! Golden outputs of fleet set-up, pinned bit for bit.
//!
//! The tables below fix what [`Fleet::new`] derives for every device — its
//! capacity and the bits of its fault difficulty, both read from the
//! device's own fault draw — and every row of each QPU model's
//! [`CostModel`], the service-time table the simulator reads.  A change
//! that only makes set-up cheaper must reproduce them exactly.  A change
//! that alters what set-up computes re-records them: the failure message
//! prints the table as measured, ready to paste over the constant.

use split_exec::cost::CostModel;
use split_exec::{QpuModel, SplitExecConfig};
use sx_cluster::prelude::*;

/// One pinned fleet: `(shape, seed, devices, digest)`, the digest taken
/// over every device's `(capacity_lps, fault_difficulty bits)` in id order.
type FleetRow = (&'static str, u64, usize, u64);

#[rustfmt::skip]
const FLEET_GOLDEN: &[FleetRow] = &[
    ("uniform-64", 1, 64, 7518337086621047577),
    ("uniform-64", 9001, 64, 4608824462451074372),
    ("hetero-1024", 1, 1024, 1786705996750297819),
    ("hetero-1024", 9001, 1024, 2909999907560888016),
];

/// One pinned cost table: `(model, rows, digest)`, the digest taken over
/// every row's four stage costs as bits (or its error text) in size order.
type CostRow = (&'static str, usize, u64);

#[rustfmt::skip]
const COST_GOLDEN: &[CostRow] = &[
    ("vesuvius", 34, 10181732888889366486),
    ("dw2x", 50, 10454864974142080804),
];

/// FNV-1a, folded over byte slices in order.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The fleets the benchmark's simulator workloads build: 64 uniform DW2X
/// devices and 1,024 mixed-generation ones with 4-entry caches.
fn fleet_config(shape: &str, seed: u64) -> FleetConfig {
    match shape {
        "uniform-64" => FleetConfig {
            qpus: 64,
            seed,
            ..FleetConfig::default()
        },
        "hetero-1024" => {
            FleetConfig::heterogeneous(1_024, seed).with_cache(4, EvictionPolicyKind::CostAware)
        }
        other => panic!("unknown fleet shape {other}"),
    }
}

fn measure_fleets() -> Vec<FleetRow> {
    let mut rows = Vec::new();
    for shape in ["uniform-64", "hetero-1024"] {
        for seed in [1, 9001] {
            let fleet = Fleet::new(fleet_config(shape, seed), SplitExecConfig::with_seed(seed));
            let mut hash = Fnv::new();
            for device in &fleet.devices {
                hash.mix(&(device.capacity_lps as u64).to_le_bytes());
                hash.mix(&device.fault_difficulty().to_bits().to_le_bytes());
            }
            rows.push((shape, seed, fleet.len(), hash.0));
        }
    }
    rows
}

fn measure_costs() -> Vec<CostRow> {
    QpuModel::all()
        .into_iter()
        .map(|model| {
            let (m, n, _) = model.lattice();
            let table = CostModel::new(model, &SplitExecConfig::default(), 4 * m.min(n) + 1);
            let mut hash = Fnv::new();
            for lps in 0..=table.max_lps() {
                match table.costs(lps) {
                    Ok(costs) => {
                        hash.mix(&(costs.lps as u64).to_le_bytes());
                        for seconds in [
                            costs.stage1_embed_seconds,
                            costs.stage1_overhead_seconds,
                            costs.stage2_seconds,
                            costs.stage3_seconds,
                        ] {
                            hash.mix(&seconds.to_bits().to_le_bytes());
                        }
                    }
                    Err(err) => hash.mix(err.to_string().as_bytes()),
                }
            }
            (model.name(), table.max_lps() + 1, hash.0)
        })
        .collect()
}

/// Panic with the measured table, as source, unless it equals `golden`.
fn check<R: std::fmt::Debug + PartialEq>(what: &str, constant: &str, measured: &[R], golden: &[R]) {
    if measured != golden {
        let mut table = format!("const {constant} = &[\n");
        for row in measured {
            table.push_str(&format!("    {row:?},\n"));
        }
        table.push_str("];");
        panic!("{what} differ from the pinned table; measured:\n{table}");
    }
}

#[test]
fn fleet_devices_match_the_pinned_table() {
    check(
        "device capacities and fault difficulties",
        "FLEET_GOLDEN: &[FleetRow]",
        &measure_fleets(),
        FLEET_GOLDEN,
    );
}

#[test]
fn cost_tables_match_the_pinned_table() {
    check(
        "cost-table rows",
        "COST_GOLDEN: &[CostRow]",
        &measure_costs(),
        COST_GOLDEN,
    );
}
