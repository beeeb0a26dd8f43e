//! Connection and bandwidth accounting.
//!
//! Table 4 of the paper reports, per collector RPC type, the *static
//! overhead* of creating/destroying a connection and the *per-iteration
//! bandwidth* of one second of data collection. [`Connection`] is the
//! accounting point: every message sent through it is tallied, and
//! [`BandwidthStats`] reproduces the table's two columns.

use std::sync::{Arc, OnceLock};

/// Process-wide RPC traffic totals, shared by every connection.
///
/// [`BandwidthStats`] stays per-connection (it is what Table 4 reports);
/// these registry-backed counters aggregate the same traffic across all
/// connections for the exporters' summary table.
struct RpcObs {
    messages: Arc<asdf_obs::Counter>,
    bytes: Arc<asdf_obs::Counter>,
}

fn rpc_obs() -> &'static RpcObs {
    static OBS: OnceLock<RpcObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = asdf_obs::registry();
        RpcObs {
            messages: reg.counter("rpc.messages_total"),
            bytes: reg.counter("rpc.bytes_total"),
        }
    })
}

/// Byte counters for one logical RPC connection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BandwidthStats {
    /// Bytes exchanged during connection setup and teardown.
    pub static_bytes: u64,
    /// Bytes exchanged by data-collection calls.
    pub call_bytes: u64,
    /// Number of collection iterations (request/response pairs).
    pub iterations: u64,
}

impl BandwidthStats {
    /// Static overhead in kB (Table 4, "Static Ovh." column).
    pub fn static_kb(&self) -> f64 {
        self.static_bytes as f64 / 1024.0
    }

    /// Mean per-iteration bandwidth in kB/s, assuming one iteration per
    /// second (Table 4, "Per-iter BW" column).
    pub fn per_iteration_kb(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.call_bytes as f64 / self.iterations as f64 / 1024.0
        }
    }
}

/// A TCP-like connection that counts every byte moved through it.
///
/// The reproduction runs collector and analysis in one process, so no
/// socket exists — but every message is still fully encoded to, and decoded
/// from, its wire form, and the accounting covers exactly the bytes a real
/// socket would carry (including the per-message frame prefix and a
/// per-segment TCP/IP overhead estimate).
#[derive(Debug)]
pub struct Connection {
    stats: BandwidthStats,
    open: bool,
    /// Fixed protocol overhead added per message, modelling TCP/IP headers
    /// amortized over a one-message segment.
    per_message_overhead: u64,
    /// Messages/bytes not yet flushed to the global registry counters.
    /// Exchanges run tens of thousands of times per simulated second, so
    /// the global atomics are fed in batches (every [`OBS_FLUSH_EVERY`]
    /// messages and on close/drop) instead of per call; per-connection
    /// `stats` above remain exact and immediate.
    pending_msgs: u64,
    pending_bytes: u64,
}

/// TCP/IP+Ethernet header bytes for a single-segment message.
const DEFAULT_PER_MESSAGE_OVERHEAD: u64 = 66;
/// Flush batched traffic to the global counters every this many messages.
const OBS_FLUSH_EVERY: u64 = 64;
/// Bytes exchanged by a TCP three-way handshake + teardown (SYN, SYN-ACK,
/// ACK, FIN×2, ACK×2 at 66 bytes each, plus options).
const TCP_SESSION_BYTES: u64 = 7 * 66 + 40;

impl Connection {
    /// Opens a connection, charging the TCP session establishment cost to
    /// the static-overhead counter.
    pub fn open() -> Self {
        Connection {
            stats: BandwidthStats {
                static_bytes: TCP_SESSION_BYTES,
                ..BandwidthStats::default()
            },
            open: true,
            per_message_overhead: DEFAULT_PER_MESSAGE_OVERHEAD,
            pending_msgs: 0,
            pending_bytes: TCP_SESSION_BYTES,
        }
    }

    /// Pushes batched traffic into the global registry counters.
    fn flush_obs(&mut self) {
        if self.pending_msgs == 0 && self.pending_bytes == 0 {
            return;
        }
        let obs = rpc_obs();
        obs.messages.add(self.pending_msgs);
        obs.bytes.add(self.pending_bytes);
        self.pending_msgs = 0;
        self.pending_bytes = 0;
    }

    /// Sends a handshake-phase message (schema exchange) of `msg_len`
    /// framed bytes; counts toward static overhead.
    ///
    /// Like [`Connection::exchange`] this takes the message's length, not
    /// the message: accounting needs nothing else, and the daemons encode
    /// into buffers they keep.
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed.
    pub fn send_handshake(&mut self, msg_len: usize) {
        assert!(self.open, "send on closed connection");
        let wire = msg_len as u64 + self.per_message_overhead;
        self.stats.static_bytes += wire;
        self.pending_msgs += 1;
        self.pending_bytes += wire;
        if self.pending_msgs >= OBS_FLUSH_EVERY {
            self.flush_obs();
        }
    }

    /// Sends one data-collection request/response pair of the given framed
    /// lengths; counts toward per-iteration bandwidth and bumps the
    /// iteration counter.
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed.
    pub fn exchange(&mut self, request_len: usize, response_len: usize) {
        assert!(self.open, "exchange on closed connection");
        let wire = request_len as u64 + response_len as u64 + 2 * self.per_message_overhead;
        self.stats.call_bytes += wire;
        self.stats.iterations += 1;
        self.pending_msgs += 2;
        self.pending_bytes += wire;
        if self.pending_msgs >= OBS_FLUSH_EVERY {
            self.flush_obs();
        }
    }

    /// Closes the connection (idempotent); teardown cost was pre-charged at
    /// open.
    pub fn close(&mut self) {
        self.open = false;
        self.flush_obs();
    }

    /// Whether the connection is open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The accumulated byte counters.
    pub fn stats(&self) -> BandwidthStats {
        self.stats
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MessageBuilder;

    /// Framed length of a message carrying `n_floats` values.
    fn msg(n_floats: usize) -> usize {
        let mut b = MessageBuilder::new();
        b.put_f64_slice(&vec![0.0; n_floats]);
        b.into_frame().len()
    }

    #[test]
    fn open_charges_session_establishment() {
        let c = Connection::open();
        assert!(c.is_open());
        assert_eq!(c.stats().static_bytes, TCP_SESSION_BYTES);
        assert_eq!(c.stats().call_bytes, 0);
    }

    #[test]
    fn handshake_counts_as_static_overhead() {
        let mut c = Connection::open();
        let m = msg(100);
        c.send_handshake(m);
        let s = c.stats();
        assert_eq!(
            s.static_bytes,
            TCP_SESSION_BYTES + m as u64 + DEFAULT_PER_MESSAGE_OVERHEAD
        );
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn exchanges_accumulate_per_iteration_bandwidth() {
        let mut c = Connection::open();
        let req = msg(0);
        let resp = msg(120);
        for _ in 0..10 {
            c.exchange(req, resp);
        }
        let s = c.stats();
        assert_eq!(s.iterations, 10);
        let expected_per_iter = (req + resp) as u64 + 2 * DEFAULT_PER_MESSAGE_OVERHEAD;
        assert_eq!(s.call_bytes, 10 * expected_per_iter);
        let kb = s.per_iteration_kb();
        assert!((kb - expected_per_iter as f64 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn traffic_feeds_the_global_obs_counters() {
        // Counters are process-global and monotonic, so other tests in this
        // binary may add to them concurrently — assert on deltas with >=.
        let reg = asdf_obs::registry();
        let msgs0 = reg.counter("rpc.messages_total").get();
        let bytes0 = reg.counter("rpc.bytes_total").get();

        // Totals are exact but batched (flushed on close).
        let mut c = Connection::open();
        let hello = msg(10);
        c.send_handshake(hello);
        c.exchange(msg(0), msg(20));
        c.close();

        assert!(reg.counter("rpc.messages_total").get() >= msgs0 + 3);
        assert!(
            reg.counter("rpc.bytes_total").get()
                >= bytes0 + hello as u64 + DEFAULT_PER_MESSAGE_OVERHEAD
        );
    }

    #[test]
    fn stats_report_zero_iterations_gracefully() {
        assert_eq!(BandwidthStats::default().per_iteration_kb(), 0.0);
    }

    #[test]
    #[should_panic(expected = "closed connection")]
    fn use_after_close_panics() {
        let mut c = Connection::open();
        c.close();
        assert!(!c.is_open());
        c.exchange(msg(0), msg(1));
    }
}
