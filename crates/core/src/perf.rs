//! The process slot meters behind the benchmark's frozen surface.
//!
//! A run meters its own slots ([`crate::telemetry::Meters`], in its
//! [`crate::run::RunReport`]). These two readers are shims of the
//! benchmark seam (DESIGN.md, "The benchmark's surface"): the meters of
//! every run on the process default, and of every engine built outside any
//! run, cumulative and monotonic.

/// Slots processed one by one on the process default so far: a shim of the
/// benchmark seam.
pub fn slots_simulated() -> u64 {
    crate::process::meters().slots_simulated
}

/// Slots covered by skip-ahead jumps on the process default so far: a shim
/// of the benchmark seam.
pub fn slots_skipped() -> u64 {
    crate::process::meters().slots_skipped
}

#[cfg(test)]
mod tests {
    use crate::process;
    use crate::run::Sink;

    #[test]
    fn counter_is_monotonic() {
        let before = process::meters().slots_simulated;
        Sink::detached().slots(3);
        assert!(process::meters().slots_simulated >= before + 3);
    }

    #[test]
    fn skipped_counter_is_monotonic() {
        let skip = process::meters().slots_skipped;
        Sink::detached().skipped(5);
        assert!(process::meters().slots_skipped >= skip + 5);
    }
}
