//! Topology description (the paper's Figure 1).
//!
//! Figure 1 of the paper depicts "a 5×5 PPS with 2 planes in its center
//! stage, without buffers in the input-ports". [`describe`] gives that
//! architecture for any configuration in one line, the `switch :` line
//! every `ppslab run` prints.

use crate::config::{BufferSpec, PpsConfig};

/// One-line architectural summary, e.g.
/// `5x5 PPS, K=2 planes @ r=R/2 (S=1), bufferless inputs`.
pub fn describe(cfg: &PpsConfig) -> String {
    let buf = match cfg.buffer {
        BufferSpec::Bufferless => "bufferless inputs".to_string(),
        BufferSpec::Buffered { size } => format!("{size}-cell input buffers"),
    };
    format!(
        "{n}x{n} PPS, K={k} planes @ r=R/{rp} (S={s}), {buf}",
        n = cfg.n,
        k = cfg.k,
        rp = cfg.r_prime,
        s = cfg.speedup(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_description() {
        let cfg = PpsConfig::bufferless(5, 2, 2);
        assert_eq!(
            describe(&cfg),
            "5x5 PPS, K=2 planes @ r=R/2 (S=1), bufferless inputs"
        );
    }

    #[test]
    fn buffered_description() {
        let cfg = PpsConfig::buffered(8, 4, 2, 16);
        assert!(describe(&cfg).contains("16-cell input buffers"));
    }
}
