//! Channel/bank timing model for both memory sides (the DRAMSim2 stand-in).
//!
//! Each memory side has `channels` independent channels, each with a data
//! bus and `banks_per_channel` banks holding one open row each. A request
//! occupies the bus for its burst time; hitting a closed row additionally
//! pays the precharge+activate penalty. Streaming access patterns therefore
//! reach close to peak bandwidth (one miss per `row_bytes`), while random
//! patterns pay a miss per access — exactly the behaviour the sustained
//! `efficiency` factor of the analytic model approximates.
//!
//! Time is in integer **picoseconds** throughout the DES layer.

use crate::config::MemSideConfig;

/// Picoseconds per second.
pub const PS: f64 = 1e12;

/// Convert seconds to picoseconds.
#[inline]
pub fn ps(seconds: f64) -> u64 {
    (seconds * PS).round() as u64
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Time the bank finishes its current activate/transfer (ps).
    free: u64,
}

/// One memory channel: a data bus plus banks.
#[derive(Debug)]
pub struct Channel {
    banks: Vec<Bank>,
    /// Bus free time (ps).
    next_free: u64,
    burst_ps: u64,
    miss_penalty_ps: u64,
    latency_ps: u64,
    /// Served requests.
    pub accesses: u64,
    /// Row-buffer hits among them.
    pub row_hits: u64,
    /// Total bus-busy picoseconds.
    pub busy_ps: u64,
}

impl Channel {
    fn new(cfg: &MemSideConfig, line_bytes: u64) -> Self {
        Self {
            banks: vec![Bank::default(); cfg.banks_per_channel.max(1) as usize],
            next_free: 0,
            burst_ps: ps(cfg.row_hit_s * line_bytes as f64 / 64.0),
            miss_penalty_ps: ps(cfg.row_miss_penalty_s),
            latency_ps: ps(cfg.latency_s),
            accesses: 0,
            row_hits: 0,
            busy_ps: 0,
        }
    }

    /// Serve a line request in `row` of `bank` arriving at `t_arrive`;
    /// returns the completion time (data back at the requester's edge of
    /// the channel).
    ///
    /// Row activates happen *in the bank*, off the data bus, so independent
    /// streams pipeline: a row miss lengthens the request's latency but the
    /// bus keeps transferring at burst rate — the behaviour that lets many
    /// cores stream concurrently at near-peak bandwidth.
    fn service(&mut self, t_arrive: u64, row: u64, bank: usize) -> u64 {
        let bank = &mut self.banks[bank];
        let hit = bank.open_row == Some(row);
        // Activates serialize within a bank but run off the data bus (the
        // controller pre-activates queued requests, FR-FCFS style), so other
        // banks' transfers keep the bus busy during a row miss.
        let ready = if hit {
            t_arrive
        } else {
            let s = t_arrive.max(bank.free);
            bank.free = s + self.miss_penalty_ps;
            bank.free
        };
        // Data transfer occupies the shared bus.
        let start = ready.max(self.next_free);
        self.next_free = start + self.burst_ps;
        bank.open_row = Some(row);
        self.accesses += 1;
        self.row_hits += hit as u64;
        self.busy_ps += self.burst_ps;
        self.next_free + self.latency_ps
    }
}

/// All channels of one memory side with line-interleaved routing.
#[derive(Debug)]
pub struct MemorySide {
    channels: Vec<Channel>,
    line_bytes: u64,
    row_bytes: u64,
    banks: u64,
}

impl MemorySide {
    /// Build the side from its config and the machine line size.
    pub fn new(cfg: &MemSideConfig, line_bytes: u64) -> Self {
        Self {
            channels: (0..cfg.channels.max(1))
                .map(|_| Channel::new(cfg, line_bytes))
                .collect(),
            line_bytes: line_bytes.max(1),
            row_bytes: cfg.row_bytes.max(64),
            banks: cfg.banks_per_channel.max(1) as u64,
        }
    }

    /// The bank holding `row` (every channel has the same bank count).
    ///
    /// A multiplicative bank-bit hash (real controllers XOR/permute bank
    /// bits): without it, power-of-two-strided streams from many cores all
    /// land in one bank and serialize on activates.
    fn bank_of(&self, row: u64) -> usize {
        ((row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.banks) as usize
    }

    /// Serve one line request at `addr`; see [`MemorySide::service_lines`].
    pub fn service(&mut self, t_arrive: u64, addr: u64) -> u64 {
        self.service_lines(t_arrive, addr, 1)
    }

    /// Serve the `lines` consecutive line requests starting at `addr`, all
    /// arriving at `t_arrive`; returns the latest completion (`t_arrive`
    /// when `lines` is 0).
    ///
    /// A line goes to channel `line index mod channels` (line-address
    /// interleave) and to row `addr / row_bytes` of that channel. Only the
    /// first line is divided out; later lines step the channel by one and
    /// move to the next row (rehashing its bank) when they cross a row
    /// boundary, so any geometry — non-power-of-two channel counts, rows
    /// lines straddle — costs no division per line.
    pub fn service_lines(&mut self, t_arrive: u64, addr: u64, lines: u64) -> u64 {
        let channels = self.channels.len();
        let mut ch = ((addr / self.line_bytes) % channels as u64) as usize;
        let mut row = addr / self.row_bytes;
        let mut row_start = row * self.row_bytes;
        let mut bank = self.bank_of(row);
        let mut line_addr = addr;
        let mut done = t_arrive;
        for i in 0..lines {
            if i > 0 {
                line_addr += self.line_bytes;
                ch = if ch + 1 == channels { 0 } else { ch + 1 };
                if line_addr - row_start >= self.row_bytes {
                    // A line wider than a row may skip rows: divide here,
                    // once per row crossed, not once per line.
                    row = line_addr / self.row_bytes;
                    row_start = row * self.row_bytes;
                    bank = self.bank_of(row);
                }
            }
            done = done.max(self.channels[ch].service(t_arrive, row, bank));
        }
        done
    }

    /// Total served requests.
    pub fn accesses(&self) -> u64 {
        self.channels.iter().map(|c| c.accesses).sum()
    }

    /// Total requests that hit an open row buffer.
    pub fn row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.row_hits).sum()
    }

    /// Row-buffer hit fraction (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            return 0.0;
        }
        self.channels.iter().map(|c| c.row_hits).sum::<u64>() as f64 / a as f64
    }

    /// Aggregate bus-busy picoseconds.
    pub fn busy_ps(&self) -> u64 {
        self.channels.iter().map(|c| c.busy_ps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn far_side() -> MemorySide {
        let m = MachineConfig::fig4(256, 4.0);
        MemorySide::new(&m.far, m.line_bytes)
    }

    #[test]
    fn streaming_hits_rows() {
        let mut s = far_side();
        for i in 0..10_000u64 {
            s.service(0, i * 64);
        }
        assert_eq!(s.accesses(), 10_000);
        assert!(s.row_hit_rate() > 0.95, "hit rate {}", s.row_hit_rate());
    }

    #[test]
    fn random_access_misses_rows() {
        let mut s = far_side();
        let mut x = 0x12345678u64;
        for _ in 0..10_000 {
            // xorshift addresses over 4 GiB
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.service(0, (x % (4 << 30)) & !63);
        }
        assert!(s.row_hit_rate() < 0.2, "hit rate {}", s.row_hit_rate());
    }

    #[test]
    fn streaming_bandwidth_near_peak() {
        let m = MachineConfig::fig4(256, 4.0);
        let mut s = MemorySide::new(&m.far, m.line_bytes);
        let n = 1_000_000u64;
        let mut done = 0u64;
        for i in 0..n {
            done = done.max(s.service(0, i * 64));
        }
        let bytes = n * 64;
        let secs = done as f64 / PS;
        let bw = bytes as f64 / secs;
        let peak = m.far.channels as f64 * m.far.channel_bytes_per_sec;
        assert!(bw > 0.85 * peak, "bw {bw:.3e} vs peak {peak:.3e}");
        assert!(bw <= 1.01 * peak);
    }

    #[test]
    fn contention_serializes() {
        let mut s = far_side();
        // Two requests to the same channel (same line-interleave class).
        let t1 = s.service(0, 0);
        let t2 = s.service(0, 4 * 64); // 4 channels -> addr 256 maps to ch 0
        assert!(t2 > t1);
        // A request to another channel is not delayed.
        let t3 = s.service(0, 64);
        assert!(t3 <= t1);
    }

    #[test]
    fn near_side_faster_aggregate() {
        let m = MachineConfig::fig4(256, 8.0);
        let mut far = MemorySide::new(&m.far, 64);
        let mut near = MemorySide::new(&m.near, 64);
        let n = 100_000u64;
        let (mut tf, mut tn) = (0u64, 0u64);
        for i in 0..n {
            tf = tf.max(far.service(0, i * 64));
            tn = tn.max(near.service(0, i * 64));
        }
        let ratio = tf as f64 / tn as f64;
        assert!(ratio > 6.0, "near should be ~8x faster, got {ratio}");
    }

    /// The per-line indexing `service_lines` replaces: four divisions
    /// for every line.
    fn service_each_line(side: &mut MemorySide, t: u64, addr: u64, lines: u64) -> u64 {
        let mut done = t;
        for l in 0..lines {
            let a = addr + l * side.line_bytes;
            let ch = ((a / side.line_bytes) % side.channels.len() as u64) as usize;
            let row = a / side.row_bytes;
            let bank = ((row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % side.banks) as usize;
            done = done.max(side.channels[ch].service(t, row, bank));
        }
        done
    }

    proptest::proptest! {
        #[test]
        fn stepped_indexing_matches_per_line_division(
            channels in 1u32..14,
            banks in 1u32..18,
            row_bytes in 64u64..5000,
            line_pick in 0usize..5,
            reqs in proptest::collection::vec((0u64..1 << 34, 0u64..40), 1..60),
        ) {
            // Lines narrower, equal to and wider than rows; 4 KiB lines
            // skip whole rows.
            let line_bytes = [32u64, 64, 96, 128, 4096][line_pick];
            let mut cfg = MachineConfig::fig4(8, 3.0).far;
            cfg.channels = channels;
            cfg.banks_per_channel = banks;
            cfg.row_bytes = row_bytes;
            let mut stepped = MemorySide::new(&cfg, line_bytes);
            let mut divided = MemorySide::new(&cfg, line_bytes);
            for (i, &(addr, lines)) in reqs.iter().enumerate() {
                let t = i as u64 * 3_000;
                proptest::prop_assert_eq!(
                    stepped.service_lines(t, addr, lines),
                    service_each_line(&mut divided, t, addr, lines)
                );
            }
            proptest::prop_assert_eq!(stepped.accesses(), divided.accesses());
            proptest::prop_assert_eq!(stepped.row_hits(), divided.row_hits());
            proptest::prop_assert_eq!(stepped.busy_ps(), divided.busy_ps());
        }
    }
}
