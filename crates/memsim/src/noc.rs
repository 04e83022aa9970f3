//! On-chip network model (the Merlin stand-in).
//!
//! Fig. 4/7: each quad-core group owns a 72 GB/s connection to the on-chip
//! network; requests pay link occupancy (bytes over the link rate) plus a
//! fixed one-way latency per hop. Links are modelled as busy-until
//! resources; per-link byte counters expose hot-spotting.

use crate::config::MachineConfig;
use crate::dram::{ps, PS};

/// The network: one link per core group.
#[derive(Debug)]
pub struct Noc {
    link_free: Vec<u64>,
    link_bytes: Vec<u64>,
    bytes_per_ps: f64,
    latency_ps: u64,
}

impl Noc {
    /// Build the NoC for a machine.
    pub fn new(m: &MachineConfig) -> Self {
        let links = m.groups().max(1) as usize;
        Self {
            link_free: vec![0; links],
            link_bytes: vec![0; links],
            bytes_per_ps: m.noc_link_bytes_per_sec / PS,
            latency_ps: ps(m.noc_latency_s),
        }
    }

    /// Number of links (= core groups).
    pub fn links(&self) -> usize {
        self.link_free.len()
    }

    /// Send `bytes` over `link` starting no earlier than `t`; returns the
    /// arrival time at the far side (occupancy + latency).
    pub fn traverse(&mut self, link: usize, t: u64, bytes: u64) -> u64 {
        let link = link % self.link_free.len();
        let busy = (bytes as f64 / self.bytes_per_ps).round() as u64;
        let start = t.max(self.link_free[link]);
        self.link_free[link] = start + busy;
        self.link_bytes[link] += bytes;
        self.link_free[link] + self.latency_ps
    }

    /// The response path back to the core: latency only (responses share
    /// a separate virtual channel in this model).
    pub fn response_latency(&self) -> u64 {
        self.latency_ps
    }

    /// Total bytes moved across all links.
    pub fn total_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }

    /// `(max, mean)` per-link byte loads — hot-spot diagnostics.
    pub fn load_imbalance(&self) -> (u64, f64) {
        let max = self.link_bytes.iter().copied().max().unwrap_or(0);
        let mean = self.total_bytes() as f64 / self.link_bytes.len().max(1) as f64;
        (max, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(&MachineConfig::fig4(256, 4.0))
    }

    #[test]
    fn has_one_link_per_group() {
        assert_eq!(noc().links(), 64);
    }

    #[test]
    fn occupancy_serializes_same_link() {
        let mut n = noc();
        let a = n.traverse(0, 0, 64);
        let b = n.traverse(0, 0, 64);
        assert!(b > a, "same link must serialize");
        let c = n.traverse(1, 0, 64);
        assert_eq!(c, a, "different links are independent");
    }

    #[test]
    fn arrival_includes_latency_and_busy_time() {
        let mut n = noc();
        let t = n.traverse(0, 1000, 7200); // 7200 B at 72 GB/s = 100 ns
        let m = MachineConfig::fig4(256, 4.0);
        let expect = 1000 + ps(7200.0 / m.noc_link_bytes_per_sec) + ps(m.noc_latency_s);
        assert!(
            (t as i64 - expect as i64).abs() <= 1,
            "t={t} expect={expect}"
        );
    }

    #[test]
    fn byte_stats_accumulate() {
        let mut n = noc();
        n.traverse(0, 0, 100);
        n.traverse(3, 0, 50);
        n.traverse(0, 0, 100);
        assert_eq!(n.total_bytes(), 250);
        let (max, mean) = n.load_imbalance();
        assert_eq!(max, 200);
        assert!((mean - 250.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_link_wraps() {
        let mut n = noc();
        let t = n.traverse(1000, 0, 64); // wraps to 1000 % 64
        assert!(t > 0);
    }
}
