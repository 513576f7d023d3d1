//! Textual workload specifications — the `--workload` surface.
//!
//! A spec is `family:key=value,key=value,…`; unknown keys are errors (a
//! typoed `laod=` must not silently fall back to a default). Families:
//!
//! | family   | keys (defaults)                                                        |
//! |----------|------------------------------------------------------------------------|
//! | `zipf`   | `n=8` `load=0.8` `s=1.1` `flows=1048576` `seed=1` `horizon=20000`      |
//! | `mmpp`   | `n=8` `calm=0.05` `burst=0.9` `calm_exit=0.01` `burst_exit=0.05` `seed=1` `horizon=20000` |
//! | `onoff`  | `n=8` `on=0.02` `off=0.2` `seed=1` `horizon=20000`                     |
//! | `uniform`| `n=8` `load=0.8` `seed=1` `horizon=20000`                              |
//! | `shaped` | `n=8` `load=0.9` `num=3` `den=4` `burst=8` `seed=1` `horizon=20000`    |
//! | `replay` | `path=<csv>` `n=8` `repeat=1`                                          |
//! | `cbr`    | `n=8` `period=2` `horizon=20000`                                       |
//! | `congestion` | `n=8` `senders=2` `horizon=20000`                                  |
//!
//! `cbr` is diagonal constant-bit-rate traffic (input `i` sends to output
//! `i` every `period` slots, phases staggered) and `congestion` is the
//! Theorem 14 overload of output 0 at `senders` cells per slot
//! (`pps_traffic::adversary::congestion_traffic`); neither draws a random
//! number. [`SpecKeys`] is the grammar itself, for spec words that need
//! more than a trace to build.
//!
//! The spec string is the unit of reproducibility: report it, and anyone
//! can regenerate the identical trace.

use crate::cbr::DiagonalCbr;
use crate::mmpp::{MmppGen, OnOffBurstGen, Phase};
use crate::replay::ReplayStream;
use crate::shaped::{holds_a_cell, Shaped, UniformGen};
use crate::stream::{materialize, ArrivalStream};
use crate::zipf::ZipfGen;
use pps_core::prelude::*;
use pps_core::trace::MAX_PORTS;
use pps_traffic::adversary::congestion_traffic;
use pps_traffic::LbContract;

/// A parsed `--workload` specification; build streams with
/// [`WorkloadSpec::stream`] or go straight to a trace with
/// [`WorkloadSpec::trace`].
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Zipf-flow traffic (`zipf:`).
    Zipf {
        /// Switch ports.
        n: usize,
        /// Per-input offered load.
        load: f64,
        /// Zipf exponent.
        s: f64,
        /// Flow-population size.
        flows: u64,
        /// Master seed.
        seed: u64,
        /// Slots to generate.
        horizon: Slot,
    },
    /// Markov-modulated bursts (`mmpp:`).
    Mmpp {
        /// Switch ports.
        n: usize,
        /// Calm and burst phase parameters.
        calm: Phase,
        /// Burst phase.
        burst: Phase,
        /// Master seed.
        seed: u64,
        /// Slots to generate.
        horizon: Slot,
    },
    /// Independent on-off trains (`onoff:`).
    OnOff {
        /// Switch ports.
        n: usize,
        /// Per-slot probability an OFF silence ends.
        on_p: f64,
        /// Per-slot probability an ON train ends.
        off_p: f64,
        /// Master seed.
        seed: u64,
        /// Slots to generate.
        horizon: Slot,
    },
    /// Memoryless uniform traffic (`uniform:`).
    Uniform {
        /// Switch ports.
        n: usize,
        /// Per-input offered load.
        load: f64,
        /// Master seed.
        seed: u64,
        /// Slots to generate.
        horizon: Slot,
    },
    /// Leaky-bucket-policed uniform traffic (`shaped:`).
    Shaped {
        /// Switch ports.
        n: usize,
        /// Per-input offered load of the inner uniform source.
        load: f64,
        /// Bucket contract enforced per output.
        contract: LbContract,
        /// Master seed.
        seed: u64,
        /// Slots to generate.
        horizon: Slot,
    },
    /// CSV trace replay (`replay:`).
    Replay {
        /// Path to a `slot,input,output` CSV.
        path: String,
        /// Switch ports.
        n: usize,
        /// Times to tile the trace end-to-end.
        repeat: u64,
    },
    /// Diagonal constant-bit-rate traffic (`cbr:`).
    Cbr {
        /// Switch ports.
        n: usize,
        /// One cell per `period` slots per input.
        period: Slot,
        /// Slots to generate.
        horizon: Slot,
    },
    /// Overload of output 0 (`congestion:`).
    Congestion {
        /// Switch ports.
        n: usize,
        /// Cells per slot offered to output 0, from rotating inputs.
        senders: usize,
        /// Slots to generate.
        horizon: Slot,
    },
}

/// The keyed grammar every spec is written in: `family:key=value,…`. Each
/// key is taken once, with a range check where a generator would
/// `assert!`; [`finish`](Self::finish) refuses whatever key is left.
pub struct SpecKeys<'a> {
    family: &'a str,
    kvs: Vec<(&'a str, &'a str)>,
}

impl<'a> SpecKeys<'a> {
    /// Split `spec` into its family word and its `key=value` pairs.
    pub fn parse(spec: &'a str) -> Result<Self, String> {
        let (family, body) = spec.split_once(':').unwrap_or((spec, ""));
        let pair = |kv: &'a str| {
            kv.split_once('=')
                .ok_or_else(|| format!("{family}: expected key=value, got {kv:?}"))
        };
        let kvs = match body {
            "" => Vec::new(),
            _ => body.split(',').map(pair).collect::<Result<_, _>>()?,
        };
        Ok(SpecKeys { family, kvs })
    }

    /// The word before the `:`.
    pub fn family(&self) -> &'a str {
        self.family
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.kvs.iter().position(|(k, _)| *k == key)?;
        Some(self.kvs.remove(i).1)
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{}: bad value for {key}: {v:?}", self.family)),
        }
    }

    /// The number under `key` (`default` when absent), refused unless `ok`
    /// accepts it: the generators `assert!` these ranges, and a spec is
    /// typed by a user.
    pub fn num_where<T: std::str::FromStr + std::fmt::Display>(
        &mut self,
        key: &str,
        default: T,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.num(key, default)?;
        if ok(&v) {
            Ok(v)
        } else {
            Err(format!("{}: {key} must be {want}, got {v}", self.family))
        }
    }

    /// A probability in `[0, 1]` (NaN is in no range).
    fn prob(&mut self, key: &str, default: f64) -> Result<f64, String> {
        self.num_where(key, default, "in [0, 1]", |p| (0.0..=1.0).contains(p))
    }

    /// A per-slot transition probability in `(0, 1]`: at 0 the chain is stuck.
    fn rate(&mut self, key: &str, default: f64) -> Result<f64, String> {
        self.num_where(key, default, "in (0, 1]", |&p| p > 0.0 && p <= 1.0)
    }

    /// Switch ports, `n` (default 8): a trace names at most [`MAX_PORTS`].
    pub fn ports(&mut self) -> Result<usize, String> {
        let want = format!("at most {MAX_PORTS}");
        self.num_where("n", 8, &want, |&n| n <= MAX_PORTS)
    }

    /// A count of at least one.
    fn count(&mut self, key: &str, default: u64) -> Result<u64, String> {
        self.num_where(key, default, "at least 1", |&c| c >= 1)
    }

    fn horizon(&mut self) -> Result<Slot, String> {
        self.num("horizon", 20_000)
    }

    /// Refuse the spec if a key is left that nothing took.
    pub fn finish(self) -> Result<(), String> {
        if let Some((k, _)) = self.kvs.first() {
            return Err(format!("{}: unknown key {k:?}", self.family));
        }
        Ok(())
    }
}

impl WorkloadSpec {
    /// Parse `family:key=value,…`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut f = SpecKeys::parse(spec)?;
        let parsed = match f.family() {
            "zipf" => WorkloadSpec::Zipf {
                n: f.ports()?,
                load: f.prob("load", 0.8)?,
                s: f.num_where("s", 1.1, "positive and finite", |&s: &f64| {
                    s > 0.0 && s.is_finite()
                })?,
                flows: f.count("flows", 1 << 20)?,
                seed: f.num("seed", 1)?,
                horizon: f.horizon()?,
            },
            "mmpp" => WorkloadSpec::Mmpp {
                n: f.ports()?,
                calm: Phase {
                    arrival_p: f.prob("calm", 0.05)?,
                    exit_p: f.rate("calm_exit", 0.01)?,
                },
                burst: Phase {
                    arrival_p: f.prob("burst", 0.9)?,
                    exit_p: f.rate("burst_exit", 0.05)?,
                },
                seed: f.num("seed", 1)?,
                horizon: f.horizon()?,
            },
            "onoff" => WorkloadSpec::OnOff {
                n: f.ports()?,
                on_p: f.rate("on", 0.02)?,
                off_p: f.rate("off", 0.2)?,
                seed: f.num("seed", 1)?,
                horizon: f.horizon()?,
            },
            "uniform" => WorkloadSpec::Uniform {
                n: f.ports()?,
                load: f.prob("load", 0.8)?,
                seed: f.num("seed", 1)?,
                horizon: f.horizon()?,
            },
            "shaped" => {
                // A rate above the line rate is no Definition 3 bucket,
                // at 0 the bucket never drains, and a bucket must hold one
                // cell: burst 0 suits the line rate alone.
                let den = f.count("den", 4)?;
                let want = format!("in [1, den = {den}]");
                let (n, load) = (f.ports()?, f.prob("load", 0.9)?);
                let num = f.num_where("num", 3, &want, |m| (1..=den).contains(m))?;
                let burst = f.num_where("burst", 8, "at least 1 unless num = den", |&b| {
                    holds_a_cell(&LbContract::new(num, den, b))
                })?;
                WorkloadSpec::Shaped {
                    n,
                    load,
                    contract: LbContract::new(num, den, burst),
                    seed: f.num("seed", 1)?,
                    horizon: f.horizon()?,
                }
            }
            "replay" => {
                let path = f
                    .take("path")
                    .ok_or_else(|| "replay: missing required key path=".to_string())?
                    .to_string();
                WorkloadSpec::Replay {
                    path,
                    n: f.ports()?,
                    repeat: f.num("repeat", 1)?,
                }
            }
            "cbr" => WorkloadSpec::Cbr {
                n: f.ports()?,
                period: f.count("period", 2)?,
                horizon: f.horizon()?,
            },
            "congestion" => {
                let n = f.ports()?;
                let want = format!("in [2, n = {n}]");
                WorkloadSpec::Congestion {
                    n,
                    senders: f.num_where("senders", 2, &want, |s| (2..=n).contains(s))?,
                    horizon: f.horizon()?,
                }
            }
            other => {
                return Err(format!(
                    "unknown workload family {other:?} \
                     (expected zipf|mmpp|onoff|uniform|shaped|replay|cbr|congestion)"
                ))
            }
        };
        f.finish()?;
        Ok(parsed)
    }

    /// Switch ports the spec targets.
    pub fn ports(&self) -> usize {
        match *self {
            WorkloadSpec::Zipf { n, .. }
            | WorkloadSpec::Mmpp { n, .. }
            | WorkloadSpec::OnOff { n, .. }
            | WorkloadSpec::Uniform { n, .. }
            | WorkloadSpec::Shaped { n, .. }
            | WorkloadSpec::Replay { n, .. }
            | WorkloadSpec::Cbr { n, .. }
            | WorkloadSpec::Congestion { n, .. } => n,
        }
    }

    /// Build the stream. `Replay` reads its CSV here — the one fallible
    /// constructor.
    pub fn stream(&self) -> Result<Box<dyn ArrivalStream>, String> {
        Ok(match self {
            &WorkloadSpec::Zipf {
                n,
                load,
                s,
                flows,
                seed,
                ..
            } => Box::new(ZipfGen::new(seed, n, load, s, flows)),
            &WorkloadSpec::Mmpp {
                n,
                calm,
                burst,
                seed,
                ..
            } => Box::new(MmppGen::new(seed, n, calm, burst)),
            &WorkloadSpec::OnOff {
                n,
                on_p,
                off_p,
                seed,
                ..
            } => Box::new(OnOffBurstGen::new(seed, n, on_p, off_p)),
            &WorkloadSpec::Uniform { n, load, seed, .. } => {
                Box::new(UniformGen::new(seed, n, load))
            }
            &WorkloadSpec::Shaped {
                n,
                load,
                contract,
                seed,
                ..
            } => Box::new(Shaped::new(UniformGen::new(seed, n, load), contract)),
            WorkloadSpec::Replay { path, n, repeat } => {
                let trace = pps_core::trace_io::load(std::path::Path::new(path), *n)
                    .map_err(|e| format!("replay: {e}"))?;
                Box::new(ReplayStream::repeated(&trace, *n, *repeat))
            }
            &WorkloadSpec::Cbr { n, period, .. } => Box::new(DiagonalCbr { n, period }),
            &WorkloadSpec::Congestion {
                n,
                senders,
                horizon,
            } => {
                let trace = congestion_traffic(n, 0, senders, horizon).trace;
                Box::new(ReplayStream::repeated(&trace, n, 1))
            }
        })
    }

    /// Materialize the spec into a trace (replay replays to its own
    /// horizon; generators run to their `horizon` key).
    pub fn trace(&self) -> Result<Trace, String> {
        let mut stream = self.stream()?;
        let horizon = match *self {
            WorkloadSpec::Zipf { horizon, .. }
            | WorkloadSpec::Mmpp { horizon, .. }
            | WorkloadSpec::OnOff { horizon, .. }
            | WorkloadSpec::Uniform { horizon, .. }
            | WorkloadSpec::Shaped { horizon, .. }
            | WorkloadSpec::Cbr { horizon, .. }
            | WorkloadSpec::Congestion { horizon, .. } => horizon,
            // Replay everything: the stream knows its own end.
            WorkloadSpec::Replay { .. } => Slot::MAX,
        };
        Ok(materialize(stream.as_mut(), horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_defaults_and_overrides() {
        let s = WorkloadSpec::parse("zipf:n=16,load=0.5").unwrap();
        match s {
            WorkloadSpec::Zipf { n, load, s, .. } => {
                assert_eq!(n, 16);
                assert_eq!(load, 0.5);
                assert_eq!(s, 1.1);
            }
            _ => panic!("wrong family"),
        }
        assert!(
            WorkloadSpec::parse("uniform").is_ok(),
            "bare family = all defaults"
        );
    }

    #[test]
    fn rejects_unknown_family_and_keys() {
        assert!(WorkloadSpec::parse("poisson:n=8").is_err());
        assert!(WorkloadSpec::parse("zipf:laod=0.5").is_err());
        assert!(WorkloadSpec::parse("zipf:n").is_err());
        assert!(
            WorkloadSpec::parse("replay:n=4").is_err(),
            "replay needs path"
        );
    }

    #[test]
    fn rejects_values_the_generators_would_assert_on() {
        for spec in [
            "uniform:load=2",
            "uniform:load=nan",
            "zipf:flows=0",
            "zipf:s=0",
            "zipf:load=-1",
            "mmpp:calm=2",
            "mmpp:calm_exit=0",
            "onoff:on=2",
            "onoff:off=0",
            "shaped:den=0",
            "shaped:burst=0",
            "shaped:num=3,den=4,burst=0",
            "shaped:n=4,num=5,den=4,horizon=200",
            "shaped:num=0",
            "uniform:n=65537",
            "replay:path=t.csv,n=70000",
            "cbr:period=0",
            "congestion:senders=1",
            "congestion:n=4,senders=5",
        ] {
            let err = WorkloadSpec::parse(spec).expect_err(spec);
            assert!(err.contains("must be"), "{spec}: {err}");
        }
        // The closed ends stay legal.
        for spec in [
            "uniform:load=1",
            "mmpp:calm=0,burst_exit=1",
            "zipf:flows=1",
            "onoff:n=65536",
            "cbr:period=1",
            "congestion:n=4,senders=4",
            "shaped:num=1,den=1",
            "shaped:num=4,den=4,burst=0",
        ] {
            assert!(WorkloadSpec::parse(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn spec_trace_is_deterministic() {
        let a = WorkloadSpec::parse("mmpp:n=4,seed=9,horizon=3000").unwrap();
        let b = WorkloadSpec::parse("mmpp:n=4,seed=9,horizon=3000").unwrap();
        assert_eq!(a.trace().unwrap(), b.trace().unwrap());
        let c = WorkloadSpec::parse("mmpp:n=4,seed=10,horizon=3000").unwrap();
        assert_ne!(a.trace().unwrap(), c.trace().unwrap());
    }

    #[test]
    fn shaped_spec_traces_are_admissible() {
        let s =
            WorkloadSpec::parse("shaped:n=4,load=0.95,num=1,den=2,burst=4,horizon=4000").unwrap();
        let t = s.trace().unwrap();
        assert!(LbContract::new(1, 2, 4).admits(&t, 4));
    }
}
