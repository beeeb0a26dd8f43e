//! Property tests: rendering a node's second when it is read cannot show.
//!
//! `Cluster::tick` keeps what each node's frame is rendered from and
//! `Cluster::latest_frame` renders it on the first read (the next tick
//! renders a second nobody read). Every frame a reader reads is therefore
//! the same bits whether it reads every node every second, a random subset,
//! skips seconds with `advance(n)`, or reads nothing until the end.
//!
//! The tasktracker syscall stream is drawn on read too, and starts at the
//! node's first `Cluster::latest_tt_syscalls`: a node traced from its first
//! second reads what an every-second reader reads, and a node first traced
//! at second `T` reads the stream's first counts at `T` — the same counts
//! whatever else is read, and not what a node traced all along reads there.

use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};
use proptest::prelude::*;

fn fault_kind(i: u8) -> FaultKind {
    FaultKind::ALL[i as usize % FaultKind::ALL.len()]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A splitmix64 stream: the read plan's coin flips.
struct Plan(u64);

impl Plan {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True once in `n` draws.
    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// How the sparse reader reads.
#[derive(Clone, Copy)]
enum Mode {
    /// Every second, a random subset of the nodes.
    Subsets,
    /// Jumps one to four seconds with `advance`, then reads a subset.
    Skips,
    /// `advance` to the end, then reads every node once.
    AtTheEnd,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_sparse_reader_reads_the_eager_readers_bits(
        seed in 0u64..10_000,
        slaves in 3usize..7,
        secs in 20u64..150,
        fault_sel in proptest::collection::vec((0u8..6, 0usize..7, 0u64..100), 0..3),
        mode in 0usize..3,
        plan_seed in any::<u64>(),
    ) {
        let faults: Vec<FaultSpec> = fault_sel
            .iter()
            .map(|&(k, node, at)| FaultSpec {
                node: node % slaves,
                kind: fault_kind(k),
                start_at: at,
            })
            .collect();
        let mode = [Mode::Subsets, Mode::Skips, Mode::AtTheEnd][mode];
        let cluster = || Cluster::new(ClusterConfig::new(slaves, seed), faults.clone());

        // The eager reader: every node's frame and syscalls, every second.
        let mut eager = cluster();
        let mut frames = vec![Vec::new(); secs as usize];
        let mut syscalls = vec![Vec::new(); secs as usize];
        for t in 0..secs as usize {
            eager.tick();
            for node in 0..slaves {
                frames[t].push(bits(eager.latest_frame(node).expect("ticked").values()));
                syscalls[t].push(bits(eager.latest_tt_syscalls(node).expect("ticked")));
            }
        }

        // The sparse reader. Nodes in `from_zero` are traced from the first
        // second; any other node may be first traced later, at `first[node]`.
        let mut plan = Plan(plan_seed);
        let mut sparse = cluster();
        let from_zero: Vec<bool> = (0..slaves).map(|_| plan.one_in(2)).collect();
        let mut first: Vec<Option<u64>> = vec![None; slaves];
        let mut late_reads = Vec::new();
        while sparse.now() < secs {
            let left = secs - sparse.now();
            let step = match mode {
                Mode::Subsets => 1,
                Mode::Skips if sparse.now() > 0 => 1 + plan.next() % 4,
                Mode::Skips => 1,
                Mode::AtTheEnd => left,
            };
            sparse.advance(step.min(left));
            let t = sparse.now() - 1;
            let all = matches!(mode, Mode::AtTheEnd);
            for node in 0..slaves {
                if all || plan.one_in(2) {
                    let got = bits(sparse.latest_frame(node).expect("ticked").values());
                    prop_assert_eq!(&got, &frames[t as usize][node], "frame, node {}, t {}", node, t);
                }
                // Traced nodes read half their seconds; an untraced one
                // starts its trace one second in eight.
                let read = if t == 0 {
                    from_zero[node]
                } else if first[node].is_some() {
                    all || plan.one_in(2)
                } else {
                    all || plan.one_in(8)
                };
                if !read {
                    continue;
                }
                let start = *first[node].get_or_insert(t);
                let got = bits(sparse.latest_tt_syscalls(node).expect("ticked"));
                if start == 0 {
                    prop_assert_eq!(&got, &syscalls[t as usize][node], "syscalls, node {}, t {}", node, t);
                } else {
                    if t == start {
                        // The stream did not run through the untraced seconds.
                        prop_assert_ne!(&got, &syscalls[t as usize][node], "node {}, t {}", node, t);
                    }
                    late_reads.push((node, t, got));
                }
            }
        }

        // A node first traced at `T` reads the same stream from `T` whatever
        // else is read: here nothing but that node's counts, every second.
        let mut late = cluster();
        let mut late_syscalls = vec![vec![None; slaves]; secs as usize];
        for t in 0..secs {
            late.tick();
            for node in 0..slaves {
                if first[node].is_some_and(|start| start > 0 && start <= t) {
                    let got = bits(late.latest_tt_syscalls(node).expect("ticked"));
                    late_syscalls[t as usize][node] = Some(got);
                }
            }
        }
        for (node, t, got) in late_reads {
            prop_assert_eq!(
                Some(got),
                late_syscalls[t as usize][node].take(),
                "late-traced syscalls, node {}, t {}", node, t
            );
        }
    }
}
