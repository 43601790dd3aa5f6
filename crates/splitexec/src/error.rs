//! Error type for the split-execution pipeline.

use aspen_model::AspenError;
use minor_embed::EmbedError;
use quantum_anneal::SamplerError;
use std::fmt;

/// Anything that can go wrong while predicting or executing the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The analytic model walk failed (unknown parameter, unsupported
    /// resource, ...).
    Model(AspenError),
    /// The stage-1 embedding failed.
    Embedding(EmbedError),
    /// The stage-2 sampler backend rejected the program.
    Backend(SamplerError),
    /// The input problem is unusable (empty, larger than the hardware, ...).
    BadInput(String),
    /// A cost-table lookup past the largest size the table was built for.
    SizeOutOfRange {
        /// The requested logical problem size.
        lps: usize,
        /// The largest size the table covers.
        max_lps: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Model(e) => write!(f, "performance-model error: {e}"),
            PipelineError::Embedding(e) => write!(f, "embedding error: {e}"),
            PipelineError::Backend(e) => write!(f, "sampler-backend error: {e}"),
            PipelineError::BadInput(msg) => write!(f, "bad input: {msg}"),
            PipelineError::SizeOutOfRange { lps, max_lps } => {
                write!(f, "no cost row for lps {lps} (table covers 0..={max_lps})")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AspenError> for PipelineError {
    fn from(e: AspenError) -> Self {
        PipelineError::Model(e)
    }
}

impl From<EmbedError> for PipelineError {
    fn from(e: EmbedError) -> Self {
        PipelineError::Embedding(e)
    }
}

impl From<SamplerError> for PipelineError {
    fn from(e: SamplerError) -> Self {
        PipelineError::Backend(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PipelineError = AspenError::UnknownParameter("LPS".into()).into();
        assert!(e.to_string().contains("performance-model"));
        let e: PipelineError = EmbedError::NoEmbeddingFound {
            passes: 3,
            stats: Box::default(),
        }
        .into();
        assert!(e.to_string().contains("embedding"));
        let e: PipelineError = quantum_anneal::SamplerError::TooLarge {
            spins: 30,
            max_spins: 24,
        }
        .into();
        assert!(e.to_string().contains("sampler-backend"));
        let e = PipelineError::BadInput("empty".into());
        assert!(e.to_string().contains("bad input"));
    }
}
