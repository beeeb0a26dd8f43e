//! Resource arbitration: fair-share allocation of CPU, disk and network.
//!
//! Each simulated second, every consumer (task phase, daemon, injected hog)
//! states a demand; capacities are divided max-min fairly. Network
//! transfers are *flows* with a source and destination node, and a flow's
//! rate is limited by its fair share at both endpoints — this is what makes
//! one node's packet-loss fault slow down transfers that touch it without
//! perturbing disjoint traffic.

/// Max-min fair ("water-filling") division of `capacity` among `demands`.
///
/// Every consumer receives at most its demand; spare capacity from light
/// consumers is redistributed to heavy ones. The result sums to at most
/// `capacity` (exactly, when total demand exceeds capacity).
///
/// # Examples
///
/// ```
/// use hadoop_sim::resources::fair_share;
///
/// // Light consumer keeps its demand; the heavy two split the rest.
/// let grants = fair_share(10.0, &[2.0, 8.0, 8.0]);
/// assert_eq!(grants, vec![2.0, 4.0, 4.0]);
/// ```
pub fn fair_share(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let mut grants = Vec::new();
    fair_share_into(capacity, demands, &mut grants);
    grants
}

/// [`fair_share`] into `grants`, replacing its contents and reusing its
/// allocation — for the simulator's per-node arbitration, which runs twice
/// per node per second and allocates only when a node is oversubscribed.
pub fn fair_share_into(capacity: f64, demands: &[f64], grants: &mut Vec<f64>) {
    let n = demands.len();
    grants.clear();
    if n == 0 || capacity <= 0.0 {
        grants.resize(n, 0.0);
        return;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        grants.extend_from_slice(demands);
        return;
    }
    // Water-filling: process demands in ascending order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| demands[a].partial_cmp(&demands[b]).expect("finite demands"));
    grants.resize(n, 0.0);
    let mut remaining = capacity;
    let mut left = n;
    for &i in &order {
        let level = remaining / left as f64;
        let g = demands[i].min(level);
        grants[i] = g;
        remaining -= g;
        left -= 1;
    }
}

/// A point-to-point transfer demand for one second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending node index.
    pub src: usize,
    /// Receiving node index.
    pub dst: usize,
    /// KB the flow would like to move this second.
    pub wanted_kb: f64,
}

/// Allocates rates to `flows` subject to per-node transmit and receive
/// capacities (KB/s).
///
/// The allocation is conservative and always feasible: each flow gets
/// `wanted × min(1, tx_scale(src), rx_scale(dst))`, where a node's scale is
/// `capacity / total_demand` clamped to 1. Per-node totals therefore never
/// exceed capacity.
pub fn allocate_flows(flows: &[Flow], tx_capacity: &[f64], rx_capacity: &[f64]) -> Vec<f64> {
    let n_nodes = tx_capacity.len();
    debug_assert_eq!(rx_capacity.len(), n_nodes);
    let mut tx_demand = vec![0.0; n_nodes];
    let mut rx_demand = vec![0.0; n_nodes];
    for f in flows {
        tx_demand[f.src] += f.wanted_kb;
        rx_demand[f.dst] += f.wanted_kb;
    }
    let scale = |cap: f64, demand: f64| {
        if demand <= cap || demand == 0.0 {
            1.0
        } else {
            cap / demand
        }
    };
    flows
        .iter()
        .map(|f| {
            let s = scale(tx_capacity[f.src], tx_demand[f.src])
                .min(scale(rx_capacity[f.dst], rx_demand[f.dst]));
            f.wanted_kb * s
        })
        .collect()
}

/// TCP goodput collapse factor under random inbound packet loss.
///
/// With heavy random loss, bulk TCP does not degrade linearly — it
/// collapses: beyond ~20–30% loss the connection spends most of its time
/// in retransmission timeouts, and goodput on a gigabit LAN drops to the
/// low hundreds of KB/s. We model goodput ∝
/// `(1 − p) / (1 + 40p² + 4000p³)`: ≈ 0.98 at 1% loss, ≈ 0.17 at 10%, and
/// ≈ 0.001 (≈ 125 KB/s of a 1 Gbit/s link) at the 50% loss HADOOP-2956's
/// reproduction injects.
pub fn loss_goodput_factor(loss: f64) -> f64 {
    let loss = loss.clamp(0.0, 1.0);
    (1.0 - loss) / (1.0 + 40.0 * loss * loss + 4000.0 * loss * loss * loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_returns_demands_when_capacity_suffices() {
        assert_eq!(fair_share(100.0, &[10.0, 20.0]), vec![10.0, 20.0]);
    }

    #[test]
    fn fair_share_splits_evenly_among_equal_heavy_demands() {
        assert_eq!(fair_share(10.0, &[20.0, 20.0]), vec![5.0, 5.0]);
    }

    #[test]
    fn fair_share_redistributes_spare_from_light_consumers() {
        let g = fair_share(12.0, &[1.0, 100.0, 5.0]);
        assert_eq!(g[0], 1.0);
        assert_eq!(g[2], 5.0);
        assert!((g[1] - 6.0).abs() < 1e-9);
        assert!((g.iter().sum::<f64>() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_handles_edge_cases() {
        assert!(fair_share(10.0, &[]).is_empty());
        assert_eq!(fair_share(0.0, &[5.0]), vec![0.0]);
        assert_eq!(fair_share(10.0, &[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn fair_share_never_exceeds_demand_or_capacity() {
        let demands = [3.0, 0.5, 7.0, 2.0, 11.0];
        for cap in [0.1, 1.0, 5.0, 23.4, 100.0] {
            let g = fair_share(cap, &demands);
            for (gi, di) in g.iter().zip(&demands) {
                assert!(gi <= di, "grant exceeds demand");
            }
            assert!(g.iter().sum::<f64>() <= cap + 1e-9);
        }
    }

    #[test]
    fn flows_respect_both_endpoint_capacities() {
        // Two flows out of node 0 (cap 10), into nodes 1 and 2 (cap 100).
        let flows = [
            Flow {
                src: 0,
                dst: 1,
                wanted_kb: 20.0,
            },
            Flow {
                src: 0,
                dst: 2,
                wanted_kb: 20.0,
            },
        ];
        let rates = allocate_flows(&flows, &[10.0, 100.0, 100.0], &[100.0; 3]);
        assert!((rates[0] + rates[1] - 10.0).abs() < 1e-9);

        // Receiver-bound: both flows into node 2 (rx cap 8).
        let flows = [
            Flow {
                src: 0,
                dst: 2,
                wanted_kb: 20.0,
            },
            Flow {
                src: 1,
                dst: 2,
                wanted_kb: 20.0,
            },
        ];
        let rates = allocate_flows(&flows, &[100.0; 3], &[100.0, 100.0, 8.0]);
        assert!((rates[0] + rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_flows_get_their_demand() {
        let flows = [Flow {
            src: 0,
            dst: 1,
            wanted_kb: 5.0,
        }];
        let rates = allocate_flows(&flows, &[100.0, 100.0], &[100.0, 100.0]);
        assert_eq!(rates, vec![5.0]);
    }

    #[test]
    fn flow_allocation_is_always_feasible() {
        // Random-ish mesh: verify per-node sums never exceed capacity.
        let flows: Vec<Flow> = (0..20)
            .map(|i| Flow {
                src: i % 4,
                dst: (i + 1) % 4,
                wanted_kb: (i as f64 + 1.0) * 7.0,
            })
            .collect();
        let tx = [50.0, 80.0, 20.0, 100.0];
        let rx = [60.0, 10.0, 90.0, 40.0];
        let rates = allocate_flows(&flows, &tx, &rx);
        let mut tx_sum = [0.0; 4];
        let mut rx_sum = [0.0; 4];
        for (f, r) in flows.iter().zip(&rates) {
            assert!(*r <= f.wanted_kb + 1e-9);
            tx_sum[f.src] += r;
            rx_sum[f.dst] += r;
        }
        for i in 0..4 {
            assert!(tx_sum[i] <= tx[i] + 1e-9, "tx overflow at {i}");
            assert!(rx_sum[i] <= rx[i] + 1e-9, "rx overflow at {i}");
        }
    }

    #[test]
    fn goodput_factor_collapses_under_heavy_loss() {
        assert_eq!(loss_goodput_factor(0.0), 1.0);
        assert!(loss_goodput_factor(0.01) > 0.9);
        assert!(loss_goodput_factor(0.05) > 0.4);
        let at_half = loss_goodput_factor(0.5);
        assert!(
            at_half < 0.005,
            "50% loss should collapse goodput to RTO-dominated crawl, got {at_half}"
        );
        assert!(at_half > 1e-4);
        assert_eq!(loss_goodput_factor(1.0), 0.0);
        // Monotone decreasing.
        let mut prev = 1.0;
        for i in 1..=10 {
            let g = loss_goodput_factor(i as f64 / 10.0);
            assert!(g < prev);
            prev = g;
        }
    }
}
