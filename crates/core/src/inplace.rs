//! A merge's output, written over the sorted chunks it consumes: NMsort's
//! Phase 2, SPMS's root and each merge group of the baseline.
//!
//! Each leaves one array holding sorted chunks (NMsort's Phase-1 chunks,
//! SPMS's root groups, a baseline group's runs) and then reads every chunk
//! front to back, one key range at a time: an NMsort batch, an SPMS wave,
//! a baseline wave of pieces. Once a range's segments are read, each
//! chunk's prefix up to there is *dead*: no later range reads it again.
//! [`InPlaceOutput`] lays the output over those dead prefixes, so each
//! sort returns its input's own allocation instead of a second
//! `n`-element array.
//!
//! The array is cut into equal *slots* of `block` elements (the last may be
//! shorter), and the output into blocks of the same grid, so block `j`'s
//! final place is slot `j`. A block is stored when its first element is
//! written: in its final slot if that slot is dead and unoccupied, else in
//! the lowest such slot, else in a small overflow area. Output that is one
//! value throughout ([`fill`]) stores only its partial first and last
//! blocks; its whole blocks are *constant*, recorded with the value and
//! stored nowhere. [`finish`] then moves every misplaced block home with
//! one spare block, following each chain or cycle of the permutation
//! once, and writes each constant block home from its value.
//!
//! **Overflow bound.** Writing never outruns what has been read, so the
//! dead space holds at least as many elements as the output. Only whole
//! dead slots can take a block, and each chunk's dead prefix strands less
//! than a slot at each end (its last, partly read slot, and at its front
//! the slot it shares with an unfinished previous chunk). So at most
//! `2·chunks − 1` blocks ever go to overflow; with chunks read about
//! evenly, as sample-sort buckets are, it is about `chunks`.
//!
//! [`fill`]: InPlaceOutput::fill
//! [`finish`]: InPlaceOutput::finish

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Least slot length, in elements, where the chunk allows it: below it the
/// per-slot bookkeeping (a state, a location and a heap entry) costs more
/// than the overflow it saves.
const MIN_BLOCK: usize = 16;

/// `loc` of a block that is stored nowhere (not yet written, or parked in
/// the spare during [`InPlaceOutput::finish`]).
const NOWHERE: usize = usize::MAX;

/// `loc` of a block that holds one value throughout: it is recorded, not
/// stored ([`InPlaceOutput::fill`]).
const CONSTANT: usize = usize::MAX - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Still holds elements a later range reads.
    Live,
    /// Dead and unoccupied.
    Free,
    /// Holds an output block.
    Used,
}

/// Slot bookkeeping for writing `n` output elements over `n` elements of
/// sorted chunks. It never touches the array itself except through the
/// slices it hands out ([`Self::dests`]) and [`Self::finish`].
#[derive(Debug)]
pub(crate) struct InPlaceOutput<T> {
    n: usize,
    block: usize,
    /// Chunk `k` covers `starts[k]..starts[k + 1]`.
    starts: Vec<usize>,
    /// Chunk `k` is dead over `starts[k]..dead_end[k]`.
    dead_end: Vec<usize>,
    /// Per chunk, the next slot wholly inside it that is not yet dead.
    next_inner: Vec<usize>,
    slots: Vec<Slot>,
    /// Free full-length slots, lowest first. Lazy: a slot taken as its own
    /// block's final slot stays in the heap and is skipped when popped.
    free: BinaryHeap<Reverse<usize>>,
    /// Where each output block is stored: a slot, `slots.len() + i` for
    /// overflow block `i`, [`CONSTANT`] or [`NOWHERE`].
    loc: Vec<usize>,
    overflow: Vec<T>,
    /// The [`CONSTANT`] blocks: runs of them, in block order, with the
    /// value each holds.
    constant: Vec<(std::ops::Range<usize>, T)>,
    /// Elements read so far (the dead space) and written so far.
    consumed: usize,
    written: usize,
}

impl<T: Copy + Default> InPlaceOutput<T> {
    /// Bookkeeping for `n` elements in chunks of `chunk`, with slots of
    /// `chunk / per_chunk` elements, but at least [`MIN_BLOCK`] (or the
    /// whole chunk, if shorter). Slots shrink with the chunk, so the
    /// overflow area stays a fixed share of one chunk per chunk of input:
    /// more slots per chunk shrink it, fewer make [`Self::finish`] move
    /// fewer, longer blocks.
    pub(crate) fn new(n: usize, chunk: usize, per_chunk: usize) -> Self {
        let block = (chunk / per_chunk).max(MIN_BLOCK.min(chunk));
        Self::with_block(n, chunk, block)
    }

    /// As [`Self::new`] with an explicit slot length (`1..=chunk`).
    pub(crate) fn with_block(n: usize, chunk: usize, block: usize) -> Self {
        assert!(
            (1..=chunk).contains(&block),
            "block {block} must be in 1..={chunk}"
        );
        let starts: Vec<usize> = (0..n.div_ceil(chunk))
            .map(|k| k * chunk)
            .chain([n])
            .collect();
        let n_slots = n.div_ceil(block);
        let chunks = starts.len() - 1;
        Self {
            n,
            block,
            dead_end: starts[..chunks].to_vec(),
            next_inner: starts[..chunks]
                .iter()
                .map(|&s| s.div_ceil(block))
                .collect(),
            starts,
            slots: vec![Slot::Live; n_slots],
            free: BinaryHeap::new(),
            loc: vec![NOWHERE; n_slots],
            overflow: Vec::new(),
            constant: Vec::new(),
            consumed: 0,
            written: 0,
        }
    }

    fn chunks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Elements of slot (and block) `s`.
    fn slot_len(&self, s: usize) -> usize {
        self.block.min(self.n - s * self.block)
    }

    /// Has every output element been written?
    pub(crate) fn is_complete(&self) -> bool {
        self.written == self.n
    }

    /// Blocks stored in the overflow area so far.
    pub(crate) fn overflow_blocks(&self) -> usize {
        self.overflow.len() / self.block
    }

    /// Record that `segs[k]`, chunk `k`'s next segment, has been read for
    /// the last time. Segments continue where the chunk's last one ended.
    pub(crate) fn consume(&mut self, segs: &[(usize, usize)]) {
        assert_eq!(segs.len(), self.chunks(), "one segment per chunk");
        for (k, &(lo, hi)) in segs.iter().enumerate() {
            assert!(
                lo == self.dead_end[k] && hi <= self.starts[k + 1],
                "chunk {k}: segment {lo}..{hi} does not continue its dead prefix"
            );
            if hi == lo {
                continue;
            }
            self.dead_end[k] = hi;
            self.consumed += hi - lo;
            self.advance(k);
            // The slots chunk k shares with its neighbours need both dead.
            self.free_shared(k);
            if k + 1 < self.chunks() {
                self.free_shared(k + 1);
            }
        }
    }

    /// Free every newly dead slot that lies wholly inside chunk `k`.
    fn advance(&mut self, k: usize) {
        let inner_end = if k + 1 < self.chunks() {
            self.starts[k + 1] / self.block
        } else {
            self.slots.len()
        };
        while self.next_inner[k] < inner_end {
            let s = self.next_inner[k];
            if s * self.block + self.slot_len(s) > self.dead_end[k] {
                break;
            }
            self.free_slot(s);
            self.next_inner[k] += 1;
        }
    }

    /// Free the slot chunk `k` shares with chunk `k − 1` (its start is not
    /// on the slot grid) once both sides of it are dead.
    fn free_shared(&mut self, k: usize) {
        let start = self.starts[k];
        if k == 0 || start.is_multiple_of(self.block) {
            return;
        }
        let s = start / self.block;
        let end = s * self.block + self.slot_len(s);
        if self.slots[s] == Slot::Live && self.dead_end[k - 1] == start && self.dead_end[k] >= end {
            self.free_slot(s);
        }
    }

    fn free_slot(&mut self, s: usize) {
        self.slots[s] = Slot::Free;
        // A short slot (the array's last) takes only its own block.
        if self.slot_len(s) == self.block {
            self.free.push(Reverse(s));
        }
    }

    /// Store block `j`, whose first element is about to be written.
    fn place(&mut self, j: usize) {
        let at = if self.slots[j] == Slot::Free {
            j
        } else if let Some(s) = self.pop_free() {
            s
        } else {
            let i = self.overflow_blocks();
            debug_assert!(
                i + 1 < 2 * self.chunks(),
                "overflow exceeds 2·chunks − 1 blocks"
            );
            if self.overflow.capacity() == 0 {
                // Room for the usual `chunks` blocks; the rare run that
                // strands more grows it towards the bound.
                self.overflow
                    .reserve_exact((self.chunks() * self.block).min(self.n));
            }
            self.overflow.resize((i + 1) * self.block, T::default());
            self.loc[j] = self.slots.len() + i;
            return;
        };
        self.slots[at] = Slot::Used;
        self.loc[j] = at;
    }

    fn pop_free(&mut self) -> Option<usize> {
        while let Some(Reverse(s)) = self.free.pop() {
            if self.slots[s] == Slot::Free {
                return Some(s);
            }
        }
        None
    }

    /// The places, in output order, of the next `len` output elements:
    /// pieces of `far` and of the overflow area that laid end to end take
    /// exactly those elements. Never reaches past what has been consumed.
    pub(crate) fn dests<'a>(&'a mut self, far: &'a mut [T], len: usize) -> Vec<&'a mut [T]> {
        let (from, to) = (self.written, self.written + len);
        assert!(to <= self.consumed, "output would overwrite unread input");
        assert_eq!(far.len(), self.n, "far array length");
        if len == 0 {
            return Vec::new();
        }
        let b = self.block;
        for j in from.div_ceil(b)..to.div_ceil(b) {
            self.place(j);
        }
        self.written = to;
        // (storage offset, length, output order): far offsets first, then
        // overflow offsets past `n`, so one sort orders the carve.
        let mut pieces: Vec<(usize, usize, usize)> = (from / b..to.div_ceil(b))
            .enumerate()
            .map(|(i, j)| {
                let lo = from.max(j * b);
                let hi = to.min(j * b + b);
                let l = self.loc[j];
                let base = if l < self.slots.len() {
                    l * b
                } else {
                    self.n + (l - self.slots.len()) * b
                };
                (base + lo - j * b, hi - lo, i)
            })
            .collect();
        pieces.sort_unstable();
        let mut out: Vec<Option<&'a mut [T]>> = (0..pieces.len()).map(|_| None).collect();
        let mut rest: &'a mut [T] = far;
        let mut overflow: Option<&'a mut [T]> = Some(&mut self.overflow);
        let mut at = 0usize;
        for (off, len, i) in pieces {
            if off >= self.n {
                if let Some(o) = overflow.take() {
                    // Past the far array: carve the overflow area from here.
                    rest = o;
                    at = self.n;
                }
            }
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(off - at);
            let (piece, tail) = tail.split_at_mut(len);
            out[i] = Some(piece);
            rest = tail;
            at = off + len;
        }
        out.into_iter()
            .map(|p| p.expect("every piece carved"))
            .collect()
    }

    /// Write `len` copies of `key` as the next output elements, like
    /// [`Self::dests`] and a fill. The whole blocks among them are not
    /// stored: they take no slot, and [`Self::finish`] writes them home.
    pub(crate) fn fill(&mut self, far: &mut [T], len: usize, key: T) {
        let (from, to) = (self.written, self.written + len);
        let b = self.block;
        // Whole blocks inside `from..to`; the array's short last block
        // counts when the fill reaches the end.
        let first = from.div_ceil(b);
        let end = if to == self.n {
            self.slots.len()
        } else {
            to / b
        };
        if first >= end {
            self.dests(far, len).into_iter().for_each(|d| d.fill(key));
            return;
        }
        // The rest of a started block, the whole blocks, then the start of
        // the next block.
        let head = first * b - from;
        self.dests(far, head).into_iter().for_each(|d| d.fill(key));
        assert!(to <= self.consumed, "output would overwrite unread input");
        self.loc[first..end].fill(CONSTANT);
        self.constant.push((first..end, key));
        self.written = (end * b).min(self.n);
        let tail = to - self.written;
        self.dests(far, tail).into_iter().for_each(|d| d.fill(key));
    }

    /// Once every element is written, move each block to its final slot:
    /// fill a slot with its own block, then refill the slot that block
    /// left, until the chain ends in the overflow area or at a constant
    /// block, which is written from its value. A constant block is stored
    /// in no slot, so its slot is never on a cycle. A slot on a cycle
    /// first parks its block in the one spare block, which closes the
    /// cycle. Frees the overflow area.
    pub(crate) fn finish(&mut self, far: &mut [T]) {
        assert_eq!(self.written, self.n, "finish before the output is written");
        let (b, n_slots) = (self.block, self.slots.len());
        let mut held = vec![NOWHERE; n_slots];
        for (j, &l) in self.loc.iter().enumerate() {
            if l < n_slots {
                held[l] = j;
            }
        }
        let mut spare: Vec<T> = Vec::new();
        // Chains that start at an empty slot end in the overflow area and
        // need no spare; they go first, so every slot left out of place
        // after them lies on a cycle, which the spare closes at once.
        for cycles in [false, true] {
            for s in 0..n_slots {
                let occupant = held[s];
                if occupant == s || (occupant == NOWHERE) == cycles {
                    continue;
                }
                if occupant != NOWHERE {
                    spare.clear();
                    spare.extend_from_slice(&far[s * b..s * b + self.slot_len(occupant)]);
                    self.loc[occupant] = NOWHERE;
                }
                let mut cur = s;
                loop {
                    let len = self.slot_len(cur);
                    let from = self.loc[cur];
                    let dst = cur * b;
                    if from < n_slots {
                        far.copy_within(from * b..from * b + len, dst);
                    } else if from == NOWHERE {
                        far[dst..dst + len].copy_from_slice(&spare[..len]);
                    } else if from == CONSTANT {
                        let run = self.constant.partition_point(|(r, _)| r.end <= cur);
                        far[dst..dst + len].fill(self.constant[run].1);
                    } else {
                        let o = (from - n_slots) * b;
                        far[dst..dst + len].copy_from_slice(&self.overflow[o..o + len]);
                    }
                    held[cur] = cur;
                    self.loc[cur] = cur;
                    if from >= n_slots {
                        break;
                    }
                    held[from] = NOWHERE;
                    cur = from;
                }
            }
        }
        self.overflow = Vec::new();
        self.constant = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::Pieces;

    /// Drive the bookkeeping like NMsort's Phase 2 does: sorted chunks laid end to
    /// end, consumed in key ranges of at least `batch` elements (all copies
    /// of the last key join the range), each range's merged keys written
    /// in two calls to [`InPlaceOutput::dests`]; then check the finished
    /// array is the sorted input. Returns the overflow blocks used.
    fn drive(
        n: usize,
        chunk: usize,
        block: usize,
        batch: usize,
        key_of: impl Fn(usize) -> u64,
    ) -> usize {
        let mut far: Vec<u64> = (0..n).map(&key_of).collect();
        for c in far.chunks_mut(chunk) {
            c.sort_unstable();
        }
        let mut expect = far.clone();
        expect.sort_unstable();
        let mut out = InPlaceOutput::with_block(n, chunk, block);
        let bounds: Vec<usize> = (0..n.div_ceil(chunk))
            .map(|k| k * chunk)
            .chain([n])
            .collect();
        let mut cursor: Vec<usize> = bounds[..bounds.len() - 1].to_vec();
        let mut done = 0;
        while done < n {
            // Keys below the splitter form the batch in every chunk.
            let splitter = expect[(done + batch).min(n) - 1];
            let segs: Vec<(usize, usize)> = cursor
                .iter()
                .enumerate()
                .map(|(k, &lo)| {
                    (
                        lo,
                        lo + far[lo..bounds[k + 1]].partition_point(|&x| x <= splitter),
                    )
                })
                .collect();
            let mut merged: Vec<u64> = segs
                .iter()
                .flat_map(|&(lo, hi)| far[lo..hi].to_vec())
                .collect();
            merged.sort_unstable();
            out.consume(&segs);
            for (k, &(_, hi)) in segs.iter().enumerate() {
                cursor[k] = hi;
            }
            // Write in two calls so blocks also continue across calls.
            let (a, rest) = merged.split_at(merged.len() / 2);
            for part in [a, rest] {
                Pieces::new(out.dests(&mut far, part.len())).fill(part);
            }
            done += merged.len();
        }
        let used = out.overflow_blocks();
        let chunks = bounds.len() - 1;
        assert!(
            used < 2 * chunks,
            "overflow {used} blocks over {chunks} chunks"
        );
        out.finish(&mut far);
        assert_eq!(
            far, expect,
            "n {n} chunk {chunk} block {block} batch {batch}"
        );
        used
    }

    fn spread(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn sorts_in_place_across_shapes() {
        // (n, chunk, block, batch): n not a multiple of the chunk, a chunk
        // not a multiple of the block, a short last chunk, and 2, 3 and 50
        // chunks.
        for (n, chunk, block, batch) in [
            (2_000, 1_000, 16, 300),
            (2_999, 1_000, 15, 250),
            (3_001, 1_000, 7, 999),
            (50 * 97 + 5, 97, 3, 120),
            (1_000, 1_000, 15, 100),
            (17, 5, 2, 4),
            (10, 4, 4, 1),
        ] {
            drive(n, chunk, block, batch, spread);
        }
    }

    #[test]
    fn random_shapes_sort_in_place() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        // Miri interprets every step; a few dozen shapes still reach the
        // overflow area and the short last slot.
        for _ in 0..if cfg!(miri) { 30 } else { 300 } {
            let n = rng.gen_range(1..300);
            let chunk = rng.gen_range(1..=n);
            let block = rng.gen_range(1..=chunk);
            let batch = rng.gen_range(1..=n);
            let (salt, distinct) = (rng.gen::<u64>(), rng.gen_range(1..2 * n as u64));
            drive(n, chunk, block, batch, |i| {
                spread(i ^ salt as usize) % distinct
            });
        }
    }

    #[test]
    fn skewed_chunks_use_overflow_and_stay_bounded() {
        // Chunk 0 holds all the small keys, so the early batches read only
        // it while the output's final slots lie in other chunks: blocks go
        // to free slots out of place, and the partial slots at chunk ends
        // push some into the overflow area.
        let n = 4 * 300 + 33;
        let key = |i: usize| {
            if i < 300 {
                i as u64
            } else {
                300 + spread(i) % 100_000
            }
        };
        let used = drive(n, 300, 7, 23, key);
        assert!(used >= 1, "the skewed run should need overflow");
        // Uniform keys spread every batch over all chunks.
        let used = drive(6 * 300 + 1, 300, 7, 120, spread);
        assert!(used < 2 * 7, "{used}");
    }

    #[test]
    fn baseline_shaped_merge_stays_within_the_overflow_bound() {
        // The baseline's single merge round, scaled down: 256 equal runs
        // whose length is not a multiple of the slot (`new(n, run, 64)`
        // gives slots of 16 here), the last run short or not, read in
        // waves of about a sixteenth of the input. Uniform keys spread
        // every wave over all runs; clustered keys read a few runs at a
        // time.
        let runs = 256;
        for run in [37, 1_000] {
            let block = InPlaceOutput::<u64>::new(runs * run, run, 64).block;
            assert_eq!(block, 16);
            assert_ne!(run % block, 0);
            for n in [runs * run, runs * run - 5] {
                let used = drive(n, run, block, n / 16, spread);
                assert!(used < 2 * runs, "overflow {used} blocks over {runs} runs");
                if cfg!(miri) {
                    // Miri interprets every step: one shape is enough.
                    return;
                }
                let clustered = |i: usize| (i / run) as u64 * 1_000 + spread(i) % 7;
                let used = drive(n, run, block, n / 16, clustered);
                assert!(used < 2 * runs, "overflow {used} blocks over {runs} runs");
            }
        }
    }

    /// Finish a hand-made layout: `loc[j]` stores block `j` (a slot, or
    /// `n_slots + i` for overflow block `i`); block `j` holds the value `j`.
    fn finish_layout(n: usize, block: usize, loc: &[usize]) {
        let n_slots = n.div_ceil(block);
        let mut out: InPlaceOutput<u64> = InPlaceOutput::with_block(n, n, block);
        let mut far = vec![99u64; n];
        let mut overflow = Vec::new();
        for (j, &l) in loc.iter().enumerate() {
            let len = out.slot_len(j);
            if l < n_slots {
                far[l * block..l * block + len].fill(j as u64);
            } else {
                overflow.resize((l - n_slots + 1) * block, 0);
                overflow[(l - n_slots) * block..][..len].fill(j as u64);
            }
        }
        out.loc = loc.to_vec();
        out.overflow = overflow;
        out.written = n;
        out.finish(&mut far);
        let expect: Vec<u64> = (0..n).map(|i| (i / block) as u64).collect();
        assert_eq!(far, expect, "{loc:?}");
        assert_eq!(out.overflow.capacity(), 0, "overflow freed");
    }

    #[test]
    fn permutation_follows_chains_then_cycles() {
        // Slot 4 is empty: its chain runs 4 ← 1 ← 0 ← overflow and passes
        // slot 0, which holds a foreign block. Slots 2 and 3 swap.
        finish_layout(10, 2, &[5, 0, 3, 2, 1]);
        // A short last block stored in a full slot, a block in overflow,
        // and a two-cycle.
        finish_layout(9, 2, &[1, 0, 2, 5, 3]);
        // Everything home already; and everything in a single long cycle.
        finish_layout(8, 2, &[0, 1, 2, 3]);
        finish_layout(8, 2, &[1, 2, 3, 0]);
    }

    /// Drive the bookkeeping like SPMS's in-place root does: `n` keys in
    /// sorted groups of `group`, cut into buckets by `groups − 1` evenly
    /// spaced pivots of the sorted keys, merged in waves of `wave`
    /// consecutive buckets. Each wave consumes every group's segment of
    /// all its buckets at once, then writes the buckets one by one, a
    /// bucket of one key by filling its places with it. Returns the
    /// overflow blocks used.
    fn drive_waves(n: usize, group: usize, wave: usize, key_of: impl Fn(usize) -> u64) -> usize {
        let mut far: Vec<u64> = (0..n).map(&key_of).collect();
        for g in far.chunks_mut(group) {
            g.sort_unstable();
        }
        let mut expect = far.clone();
        expect.sort_unstable();
        let groups = n.div_ceil(group);
        let pivots: Vec<u64> = (1..groups).map(|j| expect[j * n / groups]).collect();
        // Boundary `j` of group `k`: its keys below pivot `j − 1`.
        let bound = |far: &[u64], k: usize, j: usize| {
            let g = &far[k * group..((k + 1) * group).min(n)];
            match j {
                0 => 0,
                j if j == groups => g.len(),
                j => g.partition_point(|&x| x < pivots[j - 1]),
            }
        };
        let mut out = InPlaceOutput::new(n, group, 16);
        for first in (0..groups).step_by(wave) {
            let end = (first + wave).min(groups);
            let buckets: Vec<Vec<u64>> = (first..end)
                .map(|b| {
                    let mut keys: Vec<u64> = (0..groups)
                        .flat_map(|k| {
                            far[k * group..][bound(&far, k, b)..bound(&far, k, b + 1)].to_vec()
                        })
                        .collect();
                    keys.sort_unstable();
                    keys
                })
                .collect();
            let segs: Vec<(usize, usize)> = (0..groups)
                .map(|k| {
                    (
                        k * group + bound(&far, k, first),
                        k * group + bound(&far, k, end),
                    )
                })
                .collect();
            out.consume(&segs);
            for keys in &buckets {
                match keys.first() {
                    Some(&key) if keys.iter().all(|&x| x == key) => {
                        out.fill(&mut far, keys.len(), key);
                    }
                    _ => Pieces::new(out.dests(&mut far, keys.len())).fill(keys),
                }
            }
        }
        let used = out.overflow_blocks();
        assert!(
            used < 2 * groups,
            "overflow {used} blocks over {groups} groups"
        );
        out.finish(&mut far);
        assert_eq!(far, expect, "n {n} group {group} wave {wave}");
        used
    }

    #[test]
    fn waves_of_buckets_sort_in_place() {
        // (n, group, wave): one group's segment of a wave spans several
        // buckets; a short last group; a one-bucket wave; and a group
        // shorter than the least slot, where a slot is a whole group.
        for (n, group, wave) in [
            (4_096, 64, 4),
            (4_000, 63, 7),
            (1_025, 33, 1),
            (2_000, 45, 64),
            (300, 10, 3),
        ] {
            drive_waves(n, group, wave, spread);
            drive_waves(n, group, wave, |i| spread(i) % 7);
        }
    }

    #[test]
    fn random_waves_with_filled_buckets_sort_in_place() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        // Few distinct keys make most buckets one key: fills that start
        // and end inside blocks, cover whole ones, or reach the array's
        // short last block.
        for _ in 0..if cfg!(miri) { 20 } else { 200 } {
            let n: usize = rng.gen_range(2..3_000);
            let group = rng.gen_range(1..=n);
            let wave = rng.gen_range(1..=n.div_ceil(group));
            let (salt, distinct) = (rng.gen::<u64>(), rng.gen_range(1..40));
            drive_waves(n, group, wave, |i| spread(i ^ salt as usize) % distinct);
        }
    }

    #[test]
    fn a_bucket_larger_than_a_wave_fills_in_place() {
        // Key 1 holds 40 % of the input: its bucket is 16 groups' worth,
        // four times a wave of 4 buckets, and is filled with its key. The
        // rest are spread over distinct keys.
        let n = 40 * 100;
        let key = |i: usize| {
            if i % 5 < 2 {
                1
            } else {
                2 + spread(i) % 1_000_000
            }
        };
        drive_waves(n, 100, 4, key);
        drive_waves(n + 37, 100, 4, key);
    }

    #[test]
    #[should_panic(expected = "overwrite unread input")]
    fn output_cannot_outrun_consumption() {
        let mut far = vec![0u64; 20];
        let mut out: InPlaceOutput<u64> = InPlaceOutput::with_block(20, 10, 5);
        out.consume(&[(0, 3), (10, 12)]);
        let _ = out.dests(&mut far, 6);
    }
}
