//! Per-link packet reception models.

use crate::rng::SplitMix64;

/// Parameters of a two-state Gilbert–Elliott burst-loss channel.
///
/// Each directed link is in a *good* or *bad* state; the state flips with the
/// configured transition probabilities once per reception sample, and the
/// per-transmission loss probability depends on the current state. This is the
/// standard model for correlated (bursty) loss on low-power wireless links —
/// independent Bernoulli loss understates how badly consecutive Glossy floods
/// on the same link can fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad per sample.
    pub p_good_to_bad: f64,
    /// Probability of moving bad → good per sample.
    pub p_bad_to_good: f64,
    /// Loss probability while the link is in the good state.
    pub loss_good: f64,
    /// Loss probability while the link is in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Checks that every parameter is a probability in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// Long-run average loss probability of the two-state chain.
    pub fn steady_state_loss(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// Per-directed-link burst state, driven by its own RNG stream so that
/// enabling the burst overlay never perturbs the base loss model's draws.
#[derive(Debug, Clone)]
struct BurstState {
    params: GilbertElliott,
    rng: SplitMix64,
    /// `bad[tx][rx]` is `true` while link `tx → rx` is in the bad state.
    /// Rows and columns grow the first time a link is sampled; a link never
    /// sampled is good.
    bad: Vec<Vec<bool>>,
}

impl BurstState {
    /// Steps the chain of link `tx → rx` and draws its loss: `true` drops the
    /// packet. The table grows to hold a link seen for the first time.
    fn drops(&mut self, tx: usize, rx: usize) -> bool {
        if tx >= self.bad.len() {
            self.bad.resize_with(tx + 1, Vec::new);
        }
        let row = &mut self.bad[tx];
        if rx >= row.len() {
            row.resize(rx + 1, false);
        }
        let bad = &mut row[rx];
        let flip = if *bad {
            self.params.p_bad_to_good
        } else {
            self.params.p_good_to_bad
        };
        if self.rng.next_f64() < flip {
            *bad = !*bad;
        }
        let loss = if *bad {
            self.params.loss_bad
        } else {
            self.params.loss_good
        };
        self.rng.next_f64() < loss
    }
}

/// How likely a single transmission over one link is received.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LossModel {
    /// Every transmission is received (an ideal cable-like link).
    Perfect,
    /// Every transmission is independently received with probability
    /// `1 − loss`.
    Uniform {
        /// Per-transmission loss probability in `[0, 1]`.
        loss: f64,
    },
}

/// A seeded, reproducible link model used by the flood engine.
///
/// The model draws one independent Bernoulli sample per (transmitter,
/// receiver, transmission) triple, which is the standard abstraction used to
/// study Glossy-style flooding: with `N = 2` retransmissions and realistic
/// per-link reception rates, Glossy delivers more than 99.9 % of the floods.
#[derive(Debug, Clone)]
pub struct LinkModel {
    loss: LossModel,
    rng: SplitMix64,
    burst: Option<BurstState>,
    /// Partition mask: group id per topology node. A transmission whose
    /// endpoints sit in different groups is dropped before any RNG draw, so
    /// healing a partition restores exactly the RNG stream a never-partitioned
    /// run would have consumed for the surviving links.
    partition: Option<Vec<usize>>,
}

impl LinkModel {
    /// A model where every transmission succeeds.
    pub fn perfect() -> Self {
        LinkModel {
            loss: LossModel::Perfect,
            rng: SplitMix64::new(0),
            burst: None,
            partition: None,
        }
    }

    /// A model with independent per-transmission loss probability `loss`,
    /// using `seed` for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn uniform(loss: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        LinkModel {
            loss: LossModel::Uniform { loss },
            rng: SplitMix64::new(seed),
            burst: None,
            partition: None,
        }
    }

    /// Overlays a Gilbert–Elliott burst-loss channel on every directed link.
    ///
    /// The overlay uses its own RNG seeded with `seed`: the base model's
    /// stream is untouched, which keeps faults-off runs byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside `[0, 1]`.
    pub fn with_burst(mut self, params: GilbertElliott, seed: u64) -> Self {
        if let Err(message) = params.validate() {
            panic!("invalid Gilbert-Elliott parameters: {message}");
        }
        self.burst = Some(BurstState {
            params,
            rng: SplitMix64::new(seed),
            bad: Vec::new(),
        });
        self
    }

    /// Installs (or clears, with `None`) a partition mask: `groups[node]` is
    /// the partition group of each topology node, and links crossing groups
    /// drop every transmission.
    pub fn set_partition(&mut self, groups: Option<Vec<usize>>) {
        self.partition = groups;
    }

    /// The current partition mask, if any.
    pub fn partition(&self) -> Option<&[usize]> {
        self.partition.as_deref()
    }

    /// Samples whether one transmission from `tx` to `rx` is received.
    ///
    /// A partitioned link drops deterministically (no RNG consumed); otherwise
    /// the base model draws first and the burst overlay — on its own RNG
    /// stream — may additionally drop the packet.
    pub fn sample_reception(&mut self, tx: usize, rx: usize) -> bool {
        if let Some(groups) = &self.partition {
            let crosses = match (groups.get(tx), groups.get(rx)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            };
            if crosses {
                return false;
            }
        }
        let mut received = match self.loss {
            LossModel::Perfect => true,
            LossModel::Uniform { loss } => self.rng.next_f64() >= loss,
        };
        if let Some(burst) = &mut self.burst {
            if burst.drops(tx, rx) {
                received = false;
            }
        }
        received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_links_always_receive() {
        let mut m = LinkModel::perfect();
        assert!((0..100).all(|i| m.sample_reception(0, i)));
    }

    #[test]
    fn uniform_loss_is_reproducible() {
        let draw = |seed| {
            let mut m = LinkModel::uniform(0.3, seed);
            (0..50)
                .map(|i| m.sample_reception(0, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds give different traces");
    }

    #[test]
    fn uniform_loss_rate_is_roughly_respected() {
        let mut m = LinkModel::uniform(0.25, 7);
        let received = (0..10_000).filter(|&i| m.sample_reception(0, i)).count();
        let rate = received as f64 / 10_000.0;
        assert!((rate - 0.75).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn extreme_loss_values() {
        let mut all = LinkModel::uniform(0.0, 1);
        assert!((0..100).all(|i| all.sample_reception(0, i)));
        let mut none = LinkModel::uniform(1.0, 1);
        assert!((0..100).all(|i| !none.sample_reception(0, i)));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn invalid_loss_rejected() {
        LinkModel::uniform(1.5, 0);
    }

    #[test]
    fn partition_cuts_cross_group_links_only() {
        let mut m = LinkModel::perfect();
        m.set_partition(Some(vec![0, 0, 1, 1]));
        assert!(m.sample_reception(0, 1), "intra-group link survives");
        assert!(m.sample_reception(2, 3), "intra-group link survives");
        assert!(!m.sample_reception(1, 2), "cross-group link is cut");
        assert!(!m.sample_reception(2, 1), "cut in both directions");
        m.set_partition(None);
        assert!(
            m.sample_reception(1, 2),
            "healed partition restores the link"
        );
    }

    #[test]
    fn partition_drop_consumes_no_rng() {
        // A run where the partitioned sample happens must leave the RNG
        // exactly where a run without that sample would: the subsequent
        // draws agree.
        let trace = |partitioned: bool| {
            let mut m = LinkModel::uniform(0.3, 9);
            m.set_partition(Some(vec![0, 1, 1]));
            if partitioned {
                assert!(!m.sample_reception(0, 1));
            }
            (0..32)
                .map(|_| m.sample_reception(1, 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(true), trace(false));
    }

    #[test]
    fn burst_overlay_leaves_base_stream_untouched() {
        let trace = |burst: bool| {
            let mut m = LinkModel::uniform(0.3, 11);
            if burst {
                m = m.with_burst(
                    GilbertElliott {
                        p_good_to_bad: 0.0,
                        p_bad_to_good: 1.0,
                        loss_good: 0.0,
                        loss_bad: 1.0,
                    },
                    77,
                );
            }
            (0..64)
                .map(|_| m.sample_reception(0, 1))
                .collect::<Vec<_>>()
        };
        // loss_good = 0 and p_good_to_bad = 0 make the overlay transparent,
        // so the observable trace must equal the no-overlay trace.
        assert_eq!(trace(true), trace(false));
    }

    #[test]
    fn burst_bad_state_loses_in_bursts() {
        // Force the chain into bad (p_good_to_bad = 1) and keep it there:
        // everything after the first sample is lost.
        let mut m = LinkModel::perfect().with_burst(
            GilbertElliott {
                p_good_to_bad: 1.0,
                p_bad_to_good: 0.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            1,
        );
        assert!((0..20).all(|_| !m.sample_reception(0, 1)), "stuck in bad");
        // An independent link has its own chain state but shares the fate.
        assert!((0..20).all(|_| !m.sample_reception(1, 2)));
    }

    #[test]
    fn burst_is_reproducible_per_seed() {
        let params = GilbertElliott {
            p_good_to_bad: 0.2,
            p_bad_to_good: 0.4,
            loss_good: 0.05,
            loss_bad: 0.9,
        };
        let draw = |seed| {
            let mut m = LinkModel::perfect().with_burst(params, seed);
            (0..100)
                .map(|i| m.sample_reception(i % 3, (i + 1) % 3))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn dense_burst_table_matches_a_keyed_reference() {
        use std::collections::BTreeMap;

        /// The burst overlay as it was first written: one chain state per
        /// `(tx, rx)` key, created good on first use.
        struct Reference {
            base: SplitMix64,
            loss: f64,
            burst: SplitMix64,
            params: GilbertElliott,
            bad: BTreeMap<(usize, usize), bool>,
        }
        impl Reference {
            fn sample(&mut self, tx: usize, rx: usize) -> bool {
                let mut received = self.base.next_f64() >= self.loss;
                let bad = self.bad.entry((tx, rx)).or_insert(false);
                let flip = if *bad {
                    self.params.p_bad_to_good
                } else {
                    self.params.p_good_to_bad
                };
                if self.burst.next_f64() < flip {
                    *bad = !*bad;
                }
                let loss = if *bad {
                    self.params.loss_bad
                } else {
                    self.params.loss_good
                };
                if self.burst.next_f64() < loss {
                    received = false;
                }
                received
            }
        }

        let params = GilbertElliott {
            p_good_to_bad: 0.2,
            p_bad_to_good: 0.3,
            loss_good: 0.05,
            loss_bad: 0.9,
        };
        let mut model = LinkModel::uniform(0.2, 31).with_burst(params, 37);
        let mut reference = Reference {
            base: SplitMix64::new(31),
            loss: 0.2,
            burst: SplitMix64::new(37),
            params,
            bad: BTreeMap::new(),
        };
        let mut picks = SplitMix64::new(41);
        for step in 0..4000 {
            // The index range widens as the trace goes on, so the table grows
            // in both dimensions, and links come back in no particular order.
            let bound = 2 + step / 200;
            let tx = picks.next_u64() as usize % bound;
            let rx = picks.next_u64() as usize % bound;
            assert_eq!(
                model.sample_reception(tx, rx),
                reference.sample(tx, rx),
                "sample {step}: {tx} -> {rx}"
            );
        }
    }

    #[test]
    fn steady_state_loss_matches_long_run_average() {
        let params = GilbertElliott {
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let mut m = LinkModel::perfect().with_burst(params, 3);
        let lost = (0..20_000).filter(|_| !m.sample_reception(0, 1)).count();
        let rate = lost as f64 / 20_000.0;
        assert!(
            (rate - params.steady_state_loss()).abs() < 0.02,
            "observed {rate}, expected {}",
            params.steady_state_loss()
        );
    }

    #[test]
    #[should_panic(expected = "invalid Gilbert-Elliott parameters")]
    fn invalid_burst_params_rejected() {
        let _ = LinkModel::perfect().with_burst(
            GilbertElliott {
                p_good_to_bad: 1.5,
                p_bad_to_good: 0.0,
                loss_good: 0.0,
                loss_bad: 0.0,
            },
            0,
        );
    }
}
