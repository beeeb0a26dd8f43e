//! GridMix-style workload generation.
//!
//! GridMix is the multi-workload Hadoop benchmark the paper uses: a mixture
//! of five job classes submitted "in a manner that mimics observed
//! data-access patterns in actual user jobs". This generator reproduces the
//! mixture's *shape*: randomized job classes, sizes and submission times,
//! so the cluster's aggregate workload varies over the run — exactly the
//! property that stresses peer-comparison diagnosis.
//!
//! Sizes are scaled down the same way the paper scaled its dataset to
//! 200 MB per job "to ensure timely completion of experiments": one map
//! reads one 16 MB block. The first job is submitted at
//! [`FIRST_JOB_AT`]; the seed and the mean inter-arrival time are the
//! settings.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::job::{JobClass, JobSpec, MapProfile, ReduceProfile};
use crate::types::JobId;

/// Configuration for the GridMix generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GridMixConfig {
    /// RNG seed (fixed seed ⇒ identical job sequence).
    pub seed: u64,
    /// Mean seconds between job submissions.
    pub mean_interarrival_secs: f64,
}

/// Submission time of the first job (seconds).
pub const FIRST_JOB_AT: u64 = 5;

impl Default for GridMixConfig {
    fn default() -> Self {
        GridMixConfig {
            seed: 1,
            // A busy shared cluster: jobs overlap, as on the paper's
            // testbed, so slave nodes are comparably loaded most of the
            // time — the condition peer comparison relies on.
            mean_interarrival_secs: 30.0,
        }
    }
}

/// Streaming generator of [`JobSpec`]s with submission times.
///
/// # Examples
///
/// ```
/// use hadoop_sim::gridmix::{GridMix, GridMixConfig};
///
/// let mut gen = GridMix::new(GridMixConfig::default());
/// let (at, job) = gen.next_job();
/// assert!(job.maps > 0);
/// assert!(at >= 5);
/// ```
#[derive(Debug, Clone)]
pub struct GridMix {
    rng: SmallRng,
    next_at: u64,
    next_id: u32,
    mean_interarrival: f64,
}

impl GridMix {
    /// Creates a generator.
    pub fn new(cfg: GridMixConfig) -> Self {
        GridMix {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xa5a5_5a5a_dead_beef),
            next_at: FIRST_JOB_AT,
            next_id: 1,
            mean_interarrival: cfg.mean_interarrival_secs.max(1.0),
        }
    }

    /// Produces the next job and its submission time (seconds).
    ///
    /// Submission times are strictly increasing.
    pub fn next_job(&mut self) -> (u64, JobSpec) {
        let at = self.next_at;
        // Exponential inter-arrival, clamped to at least one second.
        let u: f64 = self.rng.gen_range(1e-6..1.0);
        let gap = (-u.ln() * self.mean_interarrival).clamp(1.0, self.mean_interarrival * 6.0);
        self.next_at = at + gap as u64 + 1;

        let class = JobClass::ALL[self.rng.gen_range(0..JobClass::ALL.len())];
        let spec = self.make_spec(class);
        (at, spec)
    }

    fn make_spec(&mut self, class: JobClass) -> JobSpec {
        let id = JobId(self.next_id);
        self.next_id += 1;

        // One map per 16 MB block; job input sizes are drawn per class.
        const BLOCK_KB: f64 = 16.0 * 1024.0;
        // (maps, reduces, map cpu, selectivity map-out/in, reduce cpu, out/in)
        let (maps, reduces, map_cpu, map_sel, red_cpu, red_sel) = match class {
            JobClass::WebdataScan => (
                self.rng.gen_range(8..=20),
                self.rng.gen_range(1..=2),
                self.rng.gen_range(6.0..12.0),
                0.05,
                1.0,
                0.5,
            ),
            JobClass::WebdataSort => (
                self.rng.gen_range(6..=16),
                self.rng.gen_range(3..=8),
                self.rng.gen_range(9.0..15.0),
                1.0,
                4.0,
                1.0,
            ),
            JobClass::StreamSort => (
                self.rng.gen_range(6..=14),
                self.rng.gen_range(2..=6),
                self.rng.gen_range(5.0..9.0),
                1.0,
                2.0,
                1.0,
            ),
            JobClass::JavaSort => (
                self.rng.gen_range(6..=14),
                self.rng.gen_range(2..=6),
                self.rng.gen_range(15.0..24.0),
                1.0,
                8.0,
                1.0,
            ),
            JobClass::MonsterQuery => (
                self.rng.gen_range(10..=24),
                self.rng.gen_range(4..=8),
                self.rng.gen_range(12.0..18.0),
                0.3,
                5.0,
                0.4,
            ),
        };

        let input_kb = BLOCK_KB;
        let map_out_kb = input_kb * map_sel;
        let total_shuffle = map_out_kb * f64::from(maps);
        let per_reduce_shuffle = total_shuffle / f64::from(reduces);

        JobSpec {
            id,
            class,
            maps,
            reduces,
            map_profile: MapProfile {
                input_kb,
                cpu_secs: map_cpu,
                output_kb: map_out_kb,
            },
            reduce_profile: ReduceProfile {
                shuffle_kb: per_reduce_shuffle,
                sort_cpu_secs: red_cpu * 0.6,
                reduce_cpu_secs: red_cpu,
                output_kb: per_reduce_shuffle * red_sel,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = GridMix::new(GridMixConfig::default());
        let mut b = GridMix::new(GridMixConfig::default());
        for _ in 0..20 {
            assert_eq!(a.next_job(), b.next_job());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GridMix::new(GridMixConfig::default());
        let mut b = GridMix::new(GridMixConfig {
            seed: 2,
            ..GridMixConfig::default()
        });
        let seq_a: Vec<_> = (0..5).map(|_| a.next_job()).collect();
        let seq_b: Vec<_> = (0..5).map(|_| b.next_job()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn submission_times_strictly_increase() {
        let mut g = GridMix::new(GridMixConfig::default());
        let mut last = 0;
        for i in 0..50 {
            let (at, job) = g.next_job();
            if i > 0 {
                assert!(at > last, "submission times must increase");
            }
            assert_eq!(job.id.0, i + 1);
            last = at;
        }
    }

    #[test]
    fn all_five_classes_appear() {
        let mut g = GridMix::new(GridMixConfig::default());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(g.next_job().1.class);
        }
        assert_eq!(seen.len(), 5, "all GridMix classes should appear");
    }

    #[test]
    fn job_shapes_are_class_appropriate() {
        let mut g = GridMix::new(GridMixConfig::default());
        for _ in 0..100 {
            let (_, job) = g.next_job();
            assert!(job.maps > 0 && job.reduces > 0);
            match job.class {
                JobClass::WebdataScan => {
                    // Scan is highly selective: map output ≪ input.
                    assert!(job.map_profile.output_kb < job.map_profile.input_kb * 0.2);
                    assert!(job.reduces <= 2);
                }
                JobClass::WebdataSort | JobClass::StreamSort | JobClass::JavaSort => {
                    // Sorts carry their input through the shuffle.
                    assert_eq!(job.map_profile.output_kb, job.map_profile.input_kb);
                }
                JobClass::MonsterQuery => {
                    assert!(job.maps >= 10);
                }
            }
            // Shuffle conservation: reduces pull exactly what maps emit.
            let emitted = job.map_profile.output_kb * f64::from(job.maps);
            let pulled = job.reduce_profile.shuffle_kb * f64::from(job.reduces);
            assert!((emitted - pulled).abs() < 1e-6);
        }
    }
}
