//! The analytical evaluator: walk an application model against a machine
//! model and produce a structured runtime prediction.
//!
//! This is the ASPEN-style "resource walk": every `execute` block's resource
//! clauses are evaluated under the resolved parameter environment, converted
//! to seconds using the machine's resource rates, and combined according to
//! the chosen [`BlockSemantics`].  Control statements (`kernel` calls,
//! `iterate`, `map`) combine block times sequentially, multiplicatively, or
//! in parallel respectively.

use crate::application::ApplicationModel;
use crate::ast::{ExecuteBlock, KernelStmt};
use crate::error::{AspenError, Result};
use crate::expr::ParamEnv;
use crate::machine::MachineModel;
use std::collections::BTreeMap;

/// How the resource clauses inside a single `execute` block combine into the
/// block's runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockSemantics {
    /// Resource demands are serviced sequentially: block time is the **sum**
    /// of the per-resource times.  This is the conservative default and the
    /// assumption used throughout the paper's analysis.
    #[default]
    Sum,
    /// Resource demands overlap perfectly: block time is the **max** of the
    /// per-resource times (classic roofline-style overlap).
    Max,
}

/// Time and quantity consumed by one resource clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Resource name.
    pub resource: String,
    /// Quantity demanded (after applying any `of size` multiplier).
    pub quantity: f64,
    /// Traits requested by the clause.
    pub traits: Vec<String>,
    /// Predicted seconds for this clause (for a single execution of the
    /// enclosing block).
    pub seconds: f64,
}

/// Prediction for one `execute` block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPrediction {
    /// Optional block label from the model source.
    pub label: Option<String>,
    /// Number of times the block runs.
    pub count: f64,
    /// Per-clause usage for a single execution.
    pub usages: Vec<ResourceUsage>,
    /// Total predicted seconds including the execution count.
    pub seconds: f64,
}

/// One item in a kernel's predicted execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictionItem {
    /// An execute block.
    Block(BlockPrediction),
    /// A call to another kernel.
    Call(KernelPrediction),
    /// An `iterate [n]` loop.
    Iterate {
        /// Loop trip count.
        count: f64,
        /// Total seconds (body × count).
        seconds: f64,
        /// Predicted body items (single iteration).
        body: Vec<PredictionItem>,
    },
    /// A `map [n]` parallel region (assumed perfectly parallel).
    Map {
        /// Parallel width.
        width: f64,
        /// Total seconds (one instance; instances overlap).
        seconds: f64,
        /// Predicted body items (single instance).
        body: Vec<PredictionItem>,
    },
}

impl PredictionItem {
    /// Predicted seconds contributed by this item.
    pub fn seconds(&self) -> f64 {
        match self {
            PredictionItem::Block(b) => b.seconds,
            PredictionItem::Call(k) => k.seconds,
            PredictionItem::Iterate { seconds, .. } | PredictionItem::Map { seconds, .. } => {
                *seconds
            }
        }
    }
}

/// Prediction for one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPrediction {
    /// Kernel name.
    pub kernel: String,
    /// Items in execution order.
    pub items: Vec<PredictionItem>,
    /// Total predicted seconds for the kernel.
    pub seconds: f64,
}

/// Aggregate quantity and time per resource across the whole prediction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceTotal {
    /// Total quantity demanded (weighted by block counts and loop trips).
    pub quantity: f64,
    /// Total predicted seconds attributed to the resource.
    pub seconds: f64,
}

/// A complete runtime prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Application model name.
    pub model: String,
    /// Machine model name.
    pub machine: String,
    /// Entry kernel prediction (usually `main`).
    pub root: KernelPrediction,
    /// Totals per resource.
    pub resource_totals: BTreeMap<String, ResourceTotal>,
}

impl Prediction {
    /// Total predicted wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.root.seconds
    }

    /// Find the first top-level item produced by a call to `kernel` (depth-1
    /// search) — convenient for per-stage reporting.
    pub fn kernel_seconds(&self, kernel: &str) -> Option<f64> {
        fn find(items: &[PredictionItem], kernel: &str) -> Option<f64> {
            for item in items {
                if let PredictionItem::Call(k) = item {
                    if k.kernel == kernel {
                        return Some(k.seconds);
                    }
                    if let Some(s) = find(&k.items, kernel) {
                        return Some(s);
                    }
                }
            }
            None
        }
        if self.root.kernel == kernel {
            return Some(self.root.seconds);
        }
        find(&self.root.items, kernel)
    }

    /// The resource that contributes the most predicted time.
    pub fn dominant_resource(&self) -> Option<(&str, ResourceTotal)> {
        self.resource_totals
            .iter()
            .max_by(|a, b| a.1.seconds.total_cmp(&b.1.seconds))
            .map(|(name, total)| (name.as_str(), *total))
    }
}

/// The analytical evaluator.
#[derive(Debug, Clone)]
pub struct Predictor<'m> {
    machine: &'m MachineModel,
    semantics: BlockSemantics,
}

impl<'m> Predictor<'m> {
    /// Create a predictor for the given machine with default (sum) semantics.
    pub fn new(machine: &'m MachineModel) -> Self {
        Self {
            machine,
            semantics: BlockSemantics::Sum,
        }
    }

    /// Select the within-block combination semantics.
    pub fn with_semantics(mut self, semantics: BlockSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Predict the runtime of the application's `main` kernel with the given
    /// input-parameter overrides.
    pub fn predict(&self, app: &ApplicationModel, overrides: &ParamEnv) -> Result<Prediction> {
        self.predict_kernel(app, "main", overrides)
    }

    /// Predict the runtime starting from an arbitrary kernel.
    pub fn predict_kernel(
        &self,
        app: &ApplicationModel,
        kernel: &str,
        overrides: &ParamEnv,
    ) -> Result<Prediction> {
        let env = app.resolve_params(overrides)?;
        let mut totals: BTreeMap<String, ResourceTotal> = BTreeMap::new();
        let mut stack = Vec::new();
        let root = self.walk_kernel(app, kernel, &env, &mut totals, &mut stack)?;
        Ok(Prediction {
            model: app.name().to_string(),
            machine: self.machine.name.clone(),
            root,
            resource_totals: totals,
        })
    }

    fn walk_kernel(
        &self,
        app: &ApplicationModel,
        kernel: &str,
        env: &ParamEnv,
        totals: &mut BTreeMap<String, ResourceTotal>,
        stack: &mut Vec<String>,
    ) -> Result<KernelPrediction> {
        if stack.iter().any(|k| k == kernel) {
            return Err(AspenError::RecursiveKernel(kernel.to_string()));
        }
        stack.push(kernel.to_string());
        let decl = app.kernel(kernel)?;
        let items = self.walk_statements(app, &decl.statements, env, totals, stack)?;
        stack.pop();
        let seconds = items.iter().map(PredictionItem::seconds).sum();
        Ok(KernelPrediction {
            kernel: kernel.to_string(),
            items,
            seconds,
        })
    }

    fn walk_statements(
        &self,
        app: &ApplicationModel,
        statements: &[KernelStmt],
        env: &ParamEnv,
        totals: &mut BTreeMap<String, ResourceTotal>,
        stack: &mut Vec<String>,
    ) -> Result<Vec<PredictionItem>> {
        let mut items = Vec::with_capacity(statements.len());
        for stmt in statements {
            match stmt {
                KernelStmt::Execute(block) => {
                    items.push(PredictionItem::Block(
                        self.predict_block(block, env, 1.0, totals)?,
                    ));
                }
                KernelStmt::Call(name) => {
                    items.push(PredictionItem::Call(
                        self.walk_kernel(app, name, env, totals, stack)?,
                    ));
                }
                KernelStmt::Iterate { count, body } => {
                    let trips = count.eval(env)?.max(0.0);
                    // Account for the repetition in the totals by scaling the
                    // body contribution: walk once, then multiply.
                    let mut body_totals: BTreeMap<String, ResourceTotal> = BTreeMap::new();
                    let body_items =
                        self.walk_statements(app, body, env, &mut body_totals, stack)?;
                    let body_seconds: f64 = body_items.iter().map(PredictionItem::seconds).sum();
                    for (name, t) in body_totals {
                        let entry = totals.entry(name).or_default();
                        entry.quantity += t.quantity * trips;
                        entry.seconds += t.seconds * trips;
                    }
                    items.push(PredictionItem::Iterate {
                        count: trips,
                        seconds: body_seconds * trips,
                        body: body_items,
                    });
                }
                KernelStmt::Map { count, body } => {
                    let width = count.eval(env)?.max(1.0);
                    let mut body_totals: BTreeMap<String, ResourceTotal> = BTreeMap::new();
                    let body_items =
                        self.walk_statements(app, body, env, &mut body_totals, stack)?;
                    let body_seconds: f64 = body_items.iter().map(PredictionItem::seconds).sum();
                    // Work is performed `width` times (totals scale), but the
                    // instances overlap so the time contribution is one body.
                    for (name, t) in body_totals {
                        let entry = totals.entry(name).or_default();
                        entry.quantity += t.quantity * width;
                        entry.seconds += t.seconds;
                    }
                    items.push(PredictionItem::Map {
                        width,
                        seconds: body_seconds,
                        body: body_items,
                    });
                }
            }
        }
        Ok(items)
    }

    fn predict_block(
        &self,
        block: &ExecuteBlock,
        env: &ParamEnv,
        outer_scale: f64,
        totals: &mut BTreeMap<String, ResourceTotal>,
    ) -> Result<BlockPrediction> {
        let count = block.count.eval(env)?.max(0.0) * outer_scale;
        let mut usages = Vec::with_capacity(block.clauses.len());
        for clause in &block.clauses {
            let mut quantity = clause.quantity.eval(env)?;
            if let Some(size) = &clause.size {
                quantity *= size.eval(env)?;
            }
            let seconds = self
                .machine
                .seconds_for(&clause.resource, quantity, &clause.traits)?;
            let entry = totals.entry(clause.resource.clone()).or_default();
            entry.quantity += quantity * count;
            entry.seconds += seconds * count;
            usages.push(ResourceUsage {
                resource: clause.resource.clone(),
                quantity,
                traits: clause.traits.clone(),
                seconds,
            });
        }
        let single = match self.semantics {
            BlockSemantics::Sum => usages.iter().map(|u| u.seconds).sum::<f64>(),
            BlockSemantics::Max => usages
                .iter()
                .map(|u| u.seconds)
                .fold(0.0f64, |acc, s| acc.max(s)),
        };
        Ok(BlockPrediction {
            label: block.label.clone(),
            count,
            usages,
            seconds: single * count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ApplicationModel;
    use crate::machine::{MachineBuilder, ResourceRate};

    fn simple_machine() -> MachineModel {
        MachineBuilder::new("test-machine")
            .rate(ResourceRate::per_second("flops", 1e9))
            .rate(ResourceRate::per_second("loads", 1e10))
            .rate(ResourceRate::per_second("stores", 1e10))
            .rate(ResourceRate::per_second("intracomm", 8e9))
            .rate(ResourceRate::seconds_per_unit("QuOps", 20e-6))
            .build()
    }

    fn app(source: &str) -> ApplicationModel {
        ApplicationModel::from_source(source).unwrap()
    }

    #[test]
    fn single_block_sum_semantics() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                param W = 1e9
                kernel main {
                    execute [1] {
                        flops [W]
                        loads [1e10]
                    }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        // 1 s of flops + 1 s of loads.
        assert!((p.seconds() - 2.0).abs() < 1e-9);
        assert_eq!(p.resource_totals.len(), 2);
    }

    #[test]
    fn single_block_max_semantics() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel main {
                    execute [1] {
                        flops [1e9]
                        loads [1e10]
                    }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .with_semantics(BlockSemantics::Max)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        assert!((p.seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn execute_count_multiplies_time() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel main {
                    execute [10] { flops [1e9] }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        assert!((p.seconds() - 10.0).abs() < 1e-9);
        assert!((p.resource_totals["flops"].quantity - 1e10).abs() < 1.0);
    }

    #[test]
    fn kernel_calls_compose_sequentially() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel A { execute [1] { flops [1e9] } }
                kernel B { execute [1] { flops [2e9] } }
                kernel main { A B }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        assert!((p.seconds() - 3.0).abs() < 1e-9);
        assert!((p.kernel_seconds("A").unwrap() - 1.0).abs() < 1e-9);
        assert!((p.kernel_seconds("B").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn recursive_kernels_are_rejected() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel A { B }
                kernel B { A }
                kernel main { A }
            }
        "#);
        assert!(matches!(
            Predictor::new(&machine)
                .predict(&model, &ParamEnv::new())
                .unwrap_err(),
            AspenError::RecursiveKernel(_)
        ));
    }

    #[test]
    fn iterate_multiplies_and_map_overlaps() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel main {
                    iterate [4] { execute [1] { flops [1e9] } }
                    map [8] { execute [1] { flops [1e9] } }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        // iterate: 4 s, map: 1 s (parallel).
        assert!((p.seconds() - 5.0).abs() < 1e-9);
        // Total work still counts all 12 executions.
        assert!((p.resource_totals["flops"].quantity - 12e9).abs() < 1.0);
    }

    #[test]
    fn of_size_multiplies_quantity() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                data R as Array(10, 4)
                kernel main {
                    execute [1] { loads [10] of size [4000] to R }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        assert!((p.resource_totals["loads"].quantity - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn unsupported_resource_bubbles_up() {
        let machine = simple_machine();
        let model = app(r#"
            model M { kernel main { execute [1] { teraflops [1] } } }
        "#);
        assert!(matches!(
            Predictor::new(&machine)
                .predict(&model, &ParamEnv::new())
                .unwrap_err(),
            AspenError::UnsupportedResource { .. }
        ));
    }

    #[test]
    fn quops_paper_expression() {
        // The stage-2 QuOps clause with Accuracy=99 (percent) and
        // Success=0.9999 evaluates to ceil(ln(0.01)/ln(0.0001)) = 1 read.
        let machine = simple_machine();
        let model = app(crate::listings::STAGE2_LISTING);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new().with("Accuracy", 99.0))
            .unwrap();
        let quops = &p.resource_totals["QuOps"];
        assert_eq!(quops.quantity, 1.0);
        // 1 QuOp at 20 µs plus 320 µs readout plus 5 µs thermalization.
        let expected = 20e-6 + 320e-6 + 5e-6;
        assert!((p.seconds() - expected).abs() < 1e-12);
    }

    #[test]
    fn dominant_resource_is_identified() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                kernel main {
                    execute [1] { flops [5e9] loads [1e9] }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        let (name, total) = p.dominant_resource().unwrap();
        assert_eq!(name, "flops");
        assert!(total.seconds > 4.9);
    }

    #[test]
    fn negative_or_zero_counts_clamp() {
        let machine = simple_machine();
        let model = app(r#"
            model M {
                param N = 0
                kernel main {
                    execute [N - 1] { flops [1e9] }
                }
            }
        "#);
        let p = Predictor::new(&machine)
            .predict(&model, &ParamEnv::new())
            .unwrap();
        assert_eq!(p.seconds(), 0.0);
    }
}
