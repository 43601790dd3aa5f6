//! The CPU–QPU interaction sequence of the paper's Fig. 2.
//!
//! The figure describes how a calling thread (`cthread`) on the host CPU
//! pushes a problem through the software (SW) and middleware (MW) layers to
//! the quantum hardware (QHW) and receives a post-processed result back.
//! This module renders an [`ExecutionReport`] as that sequence of layer
//! crossings with the time attributed to each hop, which the quickstart
//! example prints as a textual sequence diagram.

use crate::pipeline::ExecutionReport;
use std::fmt;

/// The four layers of the Fig. 2 sequence diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The calling thread on the host CPU.
    CallingThread,
    /// The QPU driver software layer (problem parsing, result return).
    Software,
    /// The middleware layer (domain translation: embedding, programming,
    /// post-processing).
    Middleware,
    /// The quantum hardware layer (annealing and readout).
    QuantumHardware,
}

impl Layer {
    /// Short label used when rendering the trace.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::CallingThread => "cthread",
            Layer::Software => "SW",
            Layer::Middleware => "MW",
            Layer::QuantumHardware => "QHW",
        }
    }
}

/// One step of the sequence: work performed at (or a hand-off between)
/// layers.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceEvent {
    /// Layer where the step originates.
    pub from: Layer,
    /// Layer where the step completes.
    pub to: Layer,
    /// Human-readable description.
    pub description: String,
    /// Seconds attributed to the step (measured or hardware-modeled).
    pub seconds: f64,
}

/// An ordered trace of sequence events for one round trip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SequenceTrace {
    /// Events in execution order.
    pub events: Vec<SequenceEvent>,
}

impl SequenceTrace {
    /// Build the Fig. 2 trace from an executed pipeline report.
    pub fn from_report(report: &ExecutionReport) -> Self {
        let mut events = Vec::new();
        let push = |events: &mut Vec<SequenceEvent>, from, to, description: &str, seconds| {
            events.push(SequenceEvent {
                from,
                to,
                description: description.to_string(),
                seconds,
            });
        };
        push(
            &mut events,
            Layer::CallingThread,
            Layer::Software,
            "push problem data to the QPU interface",
            report.stage1.conversion_seconds,
        );
        push(
            &mut events,
            Layer::Software,
            Layer::Middleware,
            "parse problem and construct the logical Ising model",
            0.0,
        );
        push(
            &mut events,
            Layer::Middleware,
            Layer::Middleware,
            "minor-embed the logical model into the hardware graph",
            report.stage1.embedding_seconds,
        );
        push(
            &mut events,
            Layer::Middleware,
            Layer::Middleware,
            "set embedded parameters (biases, couplers, chain strength)",
            report.stage1.parameter_seconds,
        );
        push(
            &mut events,
            Layer::Middleware,
            Layer::QuantumHardware,
            "program the electronic control system / PMM",
            report.stage1.processor_initialize_seconds,
        );
        push(
            &mut events,
            Layer::QuantumHardware,
            Layer::QuantumHardware,
            &format!("execute {} annealing reads", report.stage2.reads),
            report.stage2.total_seconds,
        );
        push(
            &mut events,
            Layer::QuantumHardware,
            Layer::Middleware,
            "return readout ensemble",
            0.0,
        );
        push(
            &mut events,
            Layer::Middleware,
            Layer::Software,
            "un-embed, sort and deduplicate results",
            report.stage3.measured_seconds,
        );
        push(
            &mut events,
            Layer::Software,
            Layer::CallingThread,
            "return the optimization result to the caller",
            0.0,
        );
        Self { events }
    }

    /// Total seconds across all events.
    pub fn total_seconds(&self) -> f64 {
        self.events.iter().map(|e| e.seconds).sum()
    }

    /// The single most expensive event.
    pub fn dominant_event(&self) -> Option<&SequenceEvent> {
        self.events
            .iter()
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }
}

impl fmt::Display for SequenceTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sequence trace (total {:.6} s):", self.total_seconds())?;
        for event in &self.events {
            writeln!(
                f,
                "  {:>8} -> {:<8} {:<58} {:>12.6} s",
                event.from.label(),
                event.to.label(),
                event.description,
                event.seconds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitExecConfig;
    use crate::machine::SplitMachine;
    use crate::pipeline::Pipeline;
    use chimera_graph::generators;
    use qubo_ising::prelude::MaxCut;

    fn sample_report() -> ExecutionReport {
        let pipeline = Pipeline::new(SplitMachine::paper_default(), SplitExecConfig::with_seed(2));
        let qubo = MaxCut::unweighted(generators::cycle(6)).to_qubo();
        pipeline.execute(&qubo).unwrap()
    }

    #[test]
    fn trace_covers_all_layers_in_order() {
        let trace = SequenceTrace::from_report(&sample_report());
        assert_eq!(trace.events.len(), 9);
        assert_eq!(trace.events.first().unwrap().from, Layer::CallingThread);
        assert_eq!(trace.events.last().unwrap().to, Layer::CallingThread);
        assert!(trace.events.iter().any(|e| e.to == Layer::QuantumHardware));
    }

    #[test]
    fn trace_total_matches_report_total() {
        let report = sample_report();
        let trace = SequenceTrace::from_report(&report);
        assert!((trace.total_seconds() - report.total_seconds()).abs() < 1e-9);
    }

    #[test]
    fn dominant_event_is_classical_preprocessing() {
        // The most expensive hop is the electronics programming or the
        // embedding, never the quantum execution — the paper's conclusion.
        let trace = SequenceTrace::from_report(&sample_report());
        let dominant = trace.dominant_event().unwrap();
        assert_ne!(dominant.from, Layer::QuantumHardware);
    }

    #[test]
    fn display_renders_every_event() {
        let trace = SequenceTrace::from_report(&sample_report());
        let text = trace.to_string();
        assert!(text.contains("cthread"));
        assert!(text.contains("QHW"));
        assert!(text.contains("annealing reads"));
        assert_eq!(text.lines().count(), 10);
    }

    #[test]
    fn layer_labels_are_stable() {
        assert_eq!(Layer::CallingThread.label(), "cthread");
        assert_eq!(Layer::Software.label(), "SW");
        assert_eq!(Layer::Middleware.label(), "MW");
        assert_eq!(Layer::QuantumHardware.label(), "QHW");
    }
}
