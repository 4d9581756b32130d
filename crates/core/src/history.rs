//! The RAT miss history vector driving early preventive refreshes (§4.2).

use serde::Serialize;

/// A sliding window over the most recent RAT misses, classifying each as a
/// *capacity miss* (an evicted aggressor row came back) or a *compulsory miss*
/// (a new aggressor reached `NPR` for the first time).
///
/// When the fraction of capacity misses in the window exceeds the early
/// preventive refresh threshold (EPRT), CoMeT refreshes the whole rank and
/// resets all counters, because the RAT is too small to hold the working set
/// of aggressor rows and saturated sketch counters would otherwise keep
/// triggering unnecessary refreshes.
/// The window is a fixed bitset ring (one bit per miss, exactly the hardware
/// shift register the paper describes) instead of a `VecDeque<bool>`: no
/// byte-per-bool, no deque bookkeeping on the activation path.
#[derive(Debug, Clone, Serialize)]
pub struct RatMissHistory {
    words: Vec<u64>,
    /// Ring position of the oldest recorded bit.
    head: usize,
    /// Number of bits recorded so far (≤ `length`).
    recorded: usize,
    length: usize,
    capacity_misses: usize,
}

impl RatMissHistory {
    /// Creates a history window of `length` RAT misses.
    pub fn new(length: usize) -> Self {
        RatMissHistory {
            words: vec![0; length.div_ceil(64)],
            head: 0,
            recorded: 0,
            length,
            capacity_misses: 0,
        }
    }

    /// Window length in misses.
    pub fn length(&self) -> usize {
        self.length
    }

    #[inline(always)]
    fn get(&self, position: usize) -> bool {
        self.words[position / 64] >> (position % 64) & 1 != 0
    }

    #[inline(always)]
    fn set(&mut self, position: usize, bit: bool) {
        let mask = 1u64 << (position % 64);
        if bit {
            self.words[position / 64] |= mask;
        } else {
            self.words[position / 64] &= !mask;
        }
    }

    /// Records a RAT miss; `capacity_miss` is true when the missing row's sketch
    /// counters were already saturated (i.e. the row was evicted earlier).
    pub fn record(&mut self, capacity_miss: bool) {
        if self.length == 0 {
            return;
        }
        if self.recorded == self.length {
            // Full: the new bit overwrites the oldest, which ages out.
            if self.get(self.head) {
                self.capacity_misses -= 1;
            }
            self.set(self.head, capacity_miss);
            self.head += 1;
            if self.head == self.length {
                self.head = 0;
            }
        } else {
            let position = self.head + self.recorded;
            let position = if position >= self.length { position - self.length } else { position };
            self.set(position, capacity_miss);
            self.recorded += 1;
        }
        if capacity_miss {
            self.capacity_misses += 1;
        }
    }

    /// Number of capacity misses currently in the window.
    pub fn capacity_misses(&self) -> usize {
        self.capacity_misses
    }

    /// Number of misses recorded in the window so far (≤ length).
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Whether the capacity-miss count exceeds `eprt_percent`% of the window length.
    ///
    /// `eprt_percent = 0` reproduces the paper's "0 %" configuration where any
    /// capacity miss triggers an early preventive refresh.
    pub fn exceeds_threshold(&self, eprt_percent: u32) -> bool {
        let threshold = (self.length as u64 * eprt_percent as u64) / 100;
        self.capacity_misses as u64 > threshold
    }

    /// Clears the window (after an early preventive refresh or periodic reset).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.head = 0;
        self.recorded = 0;
        self.capacity_misses = 0;
    }

    /// Storage in bits (one bit per tracked miss).
    pub fn storage_bits(&self) -> u64 {
        self.length as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_capacity_misses_in_window() {
        let mut h = RatMissHistory::new(4);
        h.record(true);
        h.record(false);
        h.record(true);
        assert_eq!(h.capacity_misses(), 2);
        assert_eq!(h.recorded(), 3);
    }

    #[test]
    fn old_misses_age_out() {
        let mut h = RatMissHistory::new(2);
        h.record(true);
        h.record(true);
        h.record(false);
        h.record(false);
        assert_eq!(h.capacity_misses(), 0);
        assert_eq!(h.recorded(), 2);
    }

    #[test]
    fn threshold_percentages() {
        let mut h = RatMissHistory::new(100);
        for _ in 0..26 {
            h.record(true);
        }
        for _ in 0..74 {
            h.record(false);
        }
        assert!(h.exceeds_threshold(25));
        assert!(!h.exceeds_threshold(26));
        assert!(!h.exceeds_threshold(50));
    }

    #[test]
    fn zero_percent_triggers_on_any_capacity_miss() {
        let mut h = RatMissHistory::new(256);
        assert!(!h.exceeds_threshold(0));
        h.record(false);
        assert!(!h.exceeds_threshold(0));
        h.record(true);
        assert!(h.exceeds_threshold(0));
    }

    #[test]
    fn clear_resets_window() {
        let mut h = RatMissHistory::new(8);
        h.record(true);
        h.clear();
        assert_eq!(h.capacity_misses(), 0);
        assert_eq!(h.recorded(), 0);
    }

    #[test]
    fn paper_default_storage_is_256_bits() {
        assert_eq!(RatMissHistory::new(256).storage_bits(), 256);
    }
}
