//! Labeled training/query sets.
//!
//! A [`Dataset`] couples a feature matrix (one example per row) with integer
//! class labels and with *stable record ids*. The ids matter: Rain's
//! train–rank–fix loop deletes training records across iterations, and
//! recall is always measured against ground-truth corruption ids from the
//! original, undeleted set.

use rain_linalg::Matrix;

/// A labeled dataset with stable per-record identifiers.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    ids: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Build a dataset whose ids are `0..n`.
    ///
    /// # Panics
    /// Panics if row/label counts differ or a label is `>= n_classes`.
    pub fn new(features: Matrix, labels: Vec<usize>, n_classes: usize) -> Self {
        let ids = (0..labels.len()).collect();
        Self::with_ids(features, labels, ids, n_classes)
    }

    /// Build a dataset with explicit record ids.
    pub fn with_ids(
        features: Matrix,
        labels: Vec<usize>,
        ids: Vec<usize>,
        n_classes: usize,
    ) -> Self {
        assert_eq!(features.rows(), labels.len(), "Dataset: row/label mismatch");
        assert_eq!(labels.len(), ids.len(), "Dataset: label/id mismatch");
        assert!(n_classes >= 2, "Dataset: need at least two classes");
        assert!(
            labels.iter().all(|&y| y < n_classes),
            "Dataset: label out of range"
        );
        Dataset {
            features,
            labels,
            ids,
            n_classes,
        }
    }

    /// Number of examples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no examples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature row of example `i`.
    #[inline]
    pub fn x(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Label of example `i`.
    #[inline]
    pub fn y(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Stable id of example `i`.
    #[inline]
    pub fn id(&self, i: usize) -> usize {
        self.ids[i]
    }

    /// All labels.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// All ids.
    #[inline]
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The underlying feature matrix.
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Set the label of example `i` (used by corruption injectors).
    pub fn set_label(&mut self, i: usize, y: usize) {
        assert!(y < self.n_classes, "set_label: label out of range");
        self.labels[i] = y;
    }

    /// New dataset keeping only the rows at `keep` (ids preserved).
    pub fn select(&self, keep: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_rows(keep),
            labels: keep.iter().map(|&i| self.labels[i]).collect(),
            ids: keep.iter().map(|&i| self.ids[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// New dataset with the rows whose *ids* appear in `remove` deleted:
    /// a copy, then [`Dataset::split_off_ids`].
    pub fn remove_ids(&self, remove: &[usize]) -> Dataset {
        let mut kept = self.clone();
        kept.split_off_ids(remove);
        kept
    }

    /// Delete the rows whose *ids* appear in `ids` (absent and repeated
    /// ids are ignored), in place, and return them as a dataset of their
    /// own, in row order. The kept rows are compacted in place, without
    /// a copy of the set: one pass over the rows, then the moved ones.
    pub fn split_off_ids(&mut self, ids: &[usize]) -> Dataset {
        let mut wanted = ids.to_vec();
        wanted.sort_unstable();
        let gone: Vec<usize> = (0..self.len())
            .filter(|&i| wanted.binary_search(&self.ids[i]).is_ok())
            .collect();
        let removed = self.select(&gone);
        self.features.remove_rows(&gone);
        for column in [&mut self.labels, &mut self.ids] {
            let (mut row, mut next) = (0, gone.iter().peekable());
            column.retain(|_| {
                let keep = next.next_if_eq(&&row).is_none();
                row += 1;
                keep
            });
        }
        removed
    }

    /// Row positions of examples matching a predicate over `(id, x, y)`.
    pub fn positions_where<F>(&self, mut pred: F) -> Vec<usize>
    where
        F: FnMut(usize, &[f64], usize) -> bool,
    {
        (0..self.len())
            .filter(|&i| pred(self.ids[i], self.x(i), self.y(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        Dataset::new(m, vec![0, 1, 1], 2)
    }

    #[test]
    fn basic_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.x(1), &[1.0, 0.0]);
        assert_eq!(d.y(2), 1);
        assert_eq!(d.ids(), &[0, 1, 2]);
    }

    #[test]
    fn select_preserves_ids() {
        let d = toy().select(&[2, 0]);
        assert_eq!(d.ids(), &[2, 0]);
        assert_eq!(d.y(0), 1);
        assert_eq!(d.x(1), &[0.0, 1.0]);
    }

    #[test]
    fn remove_ids_drops_matching_rows() {
        let d = toy().remove_ids(&[1]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.ids(), &[0, 2]);
        // Removing again is a no-op.
        assert_eq!(d.remove_ids(&[1]).len(), 2);
    }

    /// Every field, with float bits.
    fn same(a: &Dataset, b: &Dataset) -> bool {
        a.features == b.features
            && a.labels == b.labels
            && a.ids == b.ids
            && a.n_classes == b.n_classes
    }

    #[test]
    fn split_off_ids_matches_selecting_both_sides() {
        let mut rng = rain_linalg::RainRng::seed_from_u64(41);
        let n = 40;
        let x = Matrix::from_vec(n, 3, rng.normal_vec(n * 3, 1.0));
        let labels = (0..n).map(|_| rng.below(3)).collect();
        // Shuffled, gapped ids, as after earlier removals.
        let mut ids: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
        rng.shuffle(&mut ids);
        let data = Dataset::with_ids(x, labels, ids.clone(), 3);
        let mut batches = vec![
            vec![],
            ids.clone(),
            vec![ids[7]],
            vec![ids[3], 0, ids[3], 2, ids[39], ids[0], 10_000],
        ];
        for _ in 0..20 {
            let k = rng.below(n + 5);
            // Present, absent (multiples of 3) and repeated ids.
            batches.push((0..k).map(|_| rng.below(3 * n + 3)).collect());
        }
        for batch in &batches {
            let hit = |id: usize| batch.contains(&id);
            let mut kept = data.clone();
            let removed = kept.split_off_ids(batch);
            let expect_kept = data.select(&data.positions_where(|id, _, _| !hit(id)));
            let expect_removed = data.select(&data.positions_where(|id, _, _| hit(id)));
            assert!(same(&kept, &expect_kept), "kept, batch {batch:?}");
            assert!(same(&removed, &expect_removed), "removed, batch {batch:?}");
            assert!(same(&data.remove_ids(batch), &expect_kept), "{batch:?}");
        }
    }

    #[test]
    fn positions_where_filters() {
        let d = toy();
        let pos = d.positions_where(|_, x, y| y == 1 && x[0] == 1.0);
        assert_eq!(pos, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let m = Matrix::from_rows(&[&[0.0]]);
        Dataset::new(m, vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "row/label mismatch")]
    fn rejects_shape_mismatch() {
        let m = Matrix::from_rows(&[&[0.0]]);
        Dataset::new(m, vec![0, 1], 2);
    }
}
