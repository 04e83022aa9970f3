//! Reference implementations, kept as oracles.
//!
//! [`ReferenceLoserTree`] is a plain branchy loser tree that counts the
//! comparisons it plays. It defines the count every merge is charged:
//! [`merge_cost_ref`] plays it over the pair pre-merge plan, and the tests
//! hold [`crate::losertree::merge_cost`], which computes the count
//! without playing any tree, to it. [`merge_into_slice_ref`] and
//! [`form_runs_ref`] are the output oracles `kernel_bench`'s smoke mode
//! checks the kernels against.

/// A loser tree: `Option<T>` heads re-read from the runs on every match,
/// a branchy three-way compare in the replay loop, and one count per
/// comparison of two live heads.
pub struct ReferenceLoserTree<'a, T> {
    runs: Vec<&'a [T]>,
    pos: Vec<usize>,
    tree: Vec<usize>,
    k_pad: usize,
    comparisons: u64,
}

impl<'a, T: Ord + Copy> ReferenceLoserTree<'a, T> {
    /// Build a tree over `runs`. Empty runs are allowed.
    pub fn new(runs: Vec<&'a [T]>) -> Self {
        let k = runs.len().max(1);
        let k_pad = k.next_power_of_two();
        let pos = vec![0; runs.len()];
        let mut lt = Self {
            runs,
            pos,
            tree: vec![usize::MAX; k_pad],
            k_pad,
            comparisons: 0,
        };
        lt.rebuild();
        lt
    }

    #[inline]
    fn head(&self, r: usize) -> Option<T> {
        if r >= self.runs.len() {
            return None;
        }
        self.runs[r].get(self.pos[r]).copied()
    }

    fn rebuild(&mut self) {
        let mut winners = vec![usize::MAX; 2 * self.k_pad];
        for leaf in 0..self.k_pad {
            winners[self.k_pad + leaf] = leaf;
        }
        for node in (1..self.k_pad).rev() {
            let a = winners[2 * node];
            let b = winners[2 * node + 1];
            let (w, l) = self.play(a, b);
            winners[node] = w;
            self.tree[node] = l;
        }
        self.tree[0] = winners.get(1).copied().unwrap_or(usize::MAX);
    }

    #[inline]
    fn play(&mut self, a: usize, b: usize) -> (usize, usize) {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => {
                self.comparisons += 1;
                match x.cmp(&y) {
                    core::cmp::Ordering::Less => (a, b),
                    core::cmp::Ordering::Greater => (b, a),
                    core::cmp::Ordering::Equal => (a.min(b), a.max(b)),
                }
            }
            (Some(_), None) => (a, b),
            (None, Some(_)) => (b, a),
            (None, None) => (a.min(b), a.max(b)),
        }
    }

    /// Pop the globally smallest remaining element.
    pub fn next_element(&mut self) -> Option<T> {
        let w = self.tree[0];
        let val = self.head(w)?;
        self.pos[w] += 1;
        let mut cur = w;
        let mut node = (self.k_pad + w) / 2;
        while node >= 1 {
            let opponent = self.tree[node];
            let (win, lose) = self.play(cur, opponent);
            self.tree[node] = lose;
            cur = win;
            node /= 2;
        }
        self.tree[0] = cur;
        Some(val)
    }

    /// Total comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

impl<T: Ord + Copy> Iterator for ReferenceLoserTree<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.next_element()
    }
}

/// Reference k-way merge into an exactly-sized slice by playing
/// [`ReferenceLoserTree`] over the runs themselves (no pair plan);
/// returns its comparisons.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_into_slice_ref<T: Ord + Copy>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    match runs.len() {
        0 => 0,
        1 => {
            out.copy_from_slice(runs[0]);
            0
        }
        _ => {
            let mut lt = ReferenceLoserTree::new(runs.to_vec());
            for slot in out.iter_mut() {
                *slot = lt.next_element().expect("run length accounting broken");
            }
            lt.comparisons()
        }
    }
}

/// The comparisons [`crate::losertree::merge_cost`] charges, by playing
/// them: each pair of the pair pre-merge plan merged by a classic counted
/// two-way loop, then [`ReferenceLoserTree`] played to the end over the
/// plan's leaves. Shares the plan, and no counting code, with
/// `merge_cost`.
pub fn merge_cost_ref<T: Ord + Copy>(runs: &[&[T]]) -> u64 {
    let mut cmps = 0;
    let leaves: Vec<Vec<T>> = crate::losertree::premerge_plan(runs)
        .map(|r| match runs[r] {
            [a, b] => {
                let (merged, c) = counted_merge(a, b);
                cmps += c;
                merged
            }
            ref one => one.concat(),
        })
        .collect();
    let mut tree = ReferenceLoserTree::new(leaves.iter().map(Vec::as_slice).collect());
    while tree.next_element().is_some() {}
    cmps + tree.comparisons()
}

/// The classic two-way merge of sorted `a` and `b`, ties taking `a`
/// first, and the comparisons it plays: one per element emitted before a
/// run is used up.
fn counted_merge<T: Ord + Copy>(a: &[T], b: &[T]) -> (Vec<T>, u64) {
    let (mut i, mut j, mut cmps) = (0, 0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        cmps += 1;
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    (out, cmps)
}

/// Reference run formation: `sort_unstable` on every run — the "before"
/// side of the `kernel_bench` run-formation cell.
pub fn form_runs_ref<T: Ord>(data: &mut [T], run_elems: usize) {
    for run in data.chunks_mut(run_elems.max(2)) {
        run.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_merge_sorts() {
        let runs = [vec![1u64, 4, 9], vec![2, 5], vec![0, 3, 8], vec![]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0u64; 8];
        let cmps = merge_into_slice_ref(&refs, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 8, 9]);
        assert!(cmps > 0);
    }

    #[test]
    fn reference_count_plays_the_pairs_then_the_tree() {
        // Four runs pair up: (0,1) plays 3, (2,3) plays 2, and the tree
        // over the two merged pairs plays 6 before the first runs dry.
        let runs = [vec![1u64, 4], vec![2, 5], vec![0, 3], vec![9]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(merge_cost_ref(&refs), 3 + 2 + 6);
        assert_eq!(merge_cost_ref::<u64>(&[]), 0);
    }

    #[test]
    fn reference_run_formation_sorts_each_run() {
        let mut v = vec![5u64, 3, 1, 9, 7, 2, 8, 0];
        form_runs_ref(&mut v, 4);
        assert_eq!(v, vec![1, 3, 5, 9, 0, 2, 7, 8]);
    }
}
