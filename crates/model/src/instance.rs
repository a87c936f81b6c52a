use crate::{Character, ModelError, Selection};

/// The stencil outline and optional row structure.
///
/// A 1DOSP instance has `row_height` set: the stencil is partitioned into
/// `floor(height / row_height)` standard-cell rows. A 2DOSP instance leaves
/// `row_height` unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stencil {
    width: u64,
    height: u64,
    row_height: Option<u64>,
}

impl Stencil {
    /// Creates a free-form (2D) stencil of `width × height` micrometers.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyStencil`] if either dimension is zero.
    pub fn new(width: u64, height: u64) -> Result<Self, ModelError> {
        if width == 0 || height == 0 {
            return Err(ModelError::EmptyStencil);
        }
        Ok(Stencil {
            width,
            height,
            row_height: None,
        })
    }

    /// Creates a row-structured (1D) stencil.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyStencil`] for zero dimensions and
    /// [`ModelError::BadRowHeight`] if `row_height` is zero or exceeds the
    /// stencil height.
    pub fn with_rows(width: u64, height: u64, row_height: u64) -> Result<Self, ModelError> {
        let mut s = Stencil::new(width, height)?;
        if row_height == 0 || row_height > height {
            return Err(ModelError::BadRowHeight {
                row_height,
                stencil_height: height,
            });
        }
        s.row_height = Some(row_height);
        Ok(s)
    }

    /// Stencil width `W` in micrometers.
    #[inline]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Stencil height `H` in micrometers.
    #[inline]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Row height for 1D instances, if the stencil is row-structured.
    #[inline]
    pub fn row_height(&self) -> Option<u64> {
        self.row_height
    }

    /// Number of rows (`m` in the paper) for a row-structured stencil,
    /// `None` otherwise.
    #[inline]
    pub fn num_rows(&self) -> Option<usize> {
        self.row_height.map(|rh| (self.height / rh) as usize)
    }
}

/// One nonzero column of a candidate's repeat row, in the CSR sparse view
/// (see [`Instance::sparse_row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseRepeat {
    /// Region index `c` with `t_ic > 0`.
    pub region: u32,
    /// Repeat count `t_ic`.
    pub repeats: u64,
    /// Precomputed reduction `R_ic = t_ic · (n_i − 1)`.
    pub reduction: u64,
}

/// A complete OSP instance for an MCC system (paper Problem 1).
///
/// The wafer is divided into `P` regions, each written by one CP; all CPs
/// share this stencil. `repeats(i, c)` is `t_ic`, the number of times
/// character candidate `i` appears in region `c`.
///
/// Writing-time accounting (Eqn. (1)):
///
/// ```text
/// T_c      = T_VSB_c − Σ_i R_ic·a_i
/// T_VSB_c  = Σ_i t_ic·n_i
/// R_ic     = t_ic·(n_i − 1)
/// T_total  = max_c T_c
/// ```
///
/// # Storage layout
///
/// The repeat matrix is stored twice, in the two shapes the planners need:
///
/// * **Row-major slab** — one flat `Vec<u64>` of `n × P` entries
///   (`repeats[i·P + c] = t_ic`), serving O(1) dense lookups
///   ([`repeats`](Instance::repeats), [`repeat_row`](Instance::repeat_row))
///   without the pointer chase and heap fragmentation of a `Vec<Vec<u64>>`.
/// * **CSR sparse view** — per candidate, the list of regions with
///   `t_ic > 0` as [`SparseRepeat`] entries carrying the *precomputed*
///   reduction `R_ic = t_ic·(n_i − 1)`. MCC repeat matrices are sparse
///   (most candidates live in a few "home" regions), so the inner loops of
///   profit/writing-time accounting iterate only the nonzero columns and
///   never multiply.
///
/// Derived per-candidate caches: `shot_saving` (`n_i − 1`) and the total
/// reduction `Σ_c R_ic`.
///
/// Invariants (established by the constructors, relied on by
/// `eblow-core`'s accounting):
///
/// * `sparse` entries of a row are in strictly increasing region order and
///   contain exactly the columns with `t_ic > 0`;
/// * `entry.reduction == entry.repeats · shot_saving(i)` exactly (u64);
/// * `total_reduction(i) == Σ` of the row's `reduction` entries;
/// * `vsb_time(c) == Σ_i t_ic · n_i`.
///
/// All dense accessors return values identical to the pre-slab
/// `Vec<Vec<u64>>` layout, and [`InstanceDigest`](crate::InstanceDigest) is
/// bit-exactly unchanged by the layout — cache keys survive the swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    stencil: Stencil,
    chars: Vec<Character>,
    /// Row-major slab: `repeats[i * num_regions + c] = t_ic`.
    repeats: Vec<u64>,
    num_regions: usize,
    /// Cached `T_VSB_c` per region.
    vsb_times: Vec<u64>,
    /// CSR offsets into `sparse`: row `i` is `sparse[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Nonzero repeat columns with precomputed reductions, row-major.
    sparse: Vec<SparseRepeat>,
    /// Cached `n_i − 1` per candidate.
    shot_savings: Vec<u64>,
    /// Cached `Σ_c R_ic` per candidate.
    total_reductions: Vec<u64>,
}

impl Instance {
    /// Creates an instance from a stencil, candidates, and the repeat matrix.
    ///
    /// `repeats` must have one row per character, each of the same length
    /// `P ≥ 1` (number of regions).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoRegions`] or [`ModelError::RaggedRepeats`] on
    /// malformed repeat matrices.
    pub fn new(
        stencil: Stencil,
        chars: Vec<Character>,
        repeats: Vec<Vec<u64>>,
    ) -> Result<Self, ModelError> {
        if repeats.len() != chars.len() {
            return Err(ModelError::RaggedRepeats {
                char_index: repeats.len().min(chars.len()),
                got: repeats.len(),
                expected: chars.len(),
            });
        }
        let num_regions = repeats.first().map(|r| r.len()).unwrap_or(1);
        for (i, row) in repeats.iter().enumerate() {
            if row.len() != num_regions {
                return Err(ModelError::RaggedRepeats {
                    char_index: i,
                    got: row.len(),
                    expected: num_regions,
                });
            }
        }
        let mut flat = Vec::with_capacity(chars.len() * num_regions);
        for row in &repeats {
            flat.extend_from_slice(row);
        }
        Self::from_flat(stencil, chars, flat, num_regions)
    }

    /// Creates an instance from an already-flat row-major repeat slab
    /// (`flat[i·num_regions + c] = t_ic`) — the allocation-free path for
    /// generators and shard extraction, which otherwise would build a
    /// nested `Vec<Vec<u64>>` only for [`Instance::new`] to flatten again.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoRegions`] when `num_regions == 0` and
    /// [`ModelError::RaggedRepeats`] when `flat.len()` is not exactly
    /// `chars.len() · num_regions`.
    pub fn from_flat(
        stencil: Stencil,
        chars: Vec<Character>,
        flat: Vec<u64>,
        num_regions: usize,
    ) -> Result<Self, ModelError> {
        if num_regions == 0 {
            return Err(ModelError::NoRegions);
        }
        if flat.len() != chars.len() * num_regions {
            let rows = flat.len() / num_regions;
            let remainder = flat.len() % num_regions;
            return Err(if remainder != 0 {
                // A trailing partial row: report its actual arity.
                ModelError::RaggedRepeats {
                    char_index: rows,
                    got: remainder,
                    expected: num_regions,
                }
            } else {
                // Whole rows, wrong count — mirror `Instance::new`'s
                // row-count mismatch reporting.
                ModelError::RaggedRepeats {
                    char_index: rows.min(chars.len()),
                    got: rows,
                    expected: chars.len(),
                }
            });
        }
        let n = chars.len();
        let mut vsb_times = vec![0u64; num_regions];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sparse = Vec::new();
        let mut shot_savings = Vec::with_capacity(n);
        let mut total_reductions = Vec::with_capacity(n);
        offsets.push(0u32);
        for (i, ch) in chars.iter().enumerate() {
            let saving = ch.shot_saving();
            shot_savings.push(saving);
            let mut total = 0u64;
            for (c, &t) in flat[i * num_regions..(i + 1) * num_regions]
                .iter()
                .enumerate()
            {
                vsb_times[c] += t * ch.vsb_shots();
                if t > 0 {
                    let reduction = t * saving;
                    total += reduction;
                    sparse.push(SparseRepeat {
                        region: c as u32,
                        repeats: t,
                        reduction,
                    });
                }
            }
            total_reductions.push(total);
            offsets.push(sparse.len() as u32);
        }
        Ok(Instance {
            stencil,
            chars,
            repeats: flat,
            num_regions,
            vsb_times,
            offsets,
            sparse,
            shot_savings,
            total_reductions,
        })
    }

    /// The stencil of this instance.
    #[inline]
    pub fn stencil(&self) -> Stencil {
        self.stencil
    }

    /// A stable 128-bit content fingerprint of this instance (see
    /// [`crate::InstanceDigest`]). Equal digests imply planning-equivalent
    /// instances, so the digest can key plan caches.
    pub fn digest(&self) -> crate::InstanceDigest {
        crate::InstanceDigest::of(self)
    }

    /// The character candidates.
    #[inline]
    pub fn chars(&self) -> &[Character] {
        &self.chars
    }

    /// Character candidate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn char(&self, i: usize) -> &Character {
        &self.chars[i]
    }

    /// Number of character candidates `n`.
    #[inline]
    pub fn num_chars(&self) -> usize {
        self.chars.len()
    }

    /// Number of wafer regions `P` (one per CP).
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// Repeat count `t_ic` of character `i` in region `c`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `c` is out of range.
    #[inline]
    pub fn repeats(&self, i: usize, c: usize) -> u64 {
        debug_assert!(c < self.num_regions);
        self.repeats[i * self.num_regions + c]
    }

    /// The full repeat row of character `i` across all regions.
    #[inline]
    pub fn repeat_row(&self, i: usize) -> &[u64] {
        &self.repeats[i * self.num_regions..(i + 1) * self.num_regions]
    }

    /// The nonzero repeat columns of character `i` with precomputed
    /// reductions, in increasing region order — the CSR view the hot
    /// accounting loops iterate instead of scanning all `P` columns.
    #[inline]
    pub fn sparse_row(&self, i: usize) -> &[SparseRepeat] {
        &self.sparse[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Cached per-use shot saving `n_i − 1` of character `i`.
    #[inline]
    pub fn shot_saving(&self, i: usize) -> u64 {
        self.shot_savings[i]
    }

    /// Pure-VSB writing time `T_VSB_c` of region `c`.
    #[inline]
    pub fn vsb_time(&self, c: usize) -> u64 {
        self.vsb_times[c]
    }

    /// Pure-VSB writing times for all regions.
    #[inline]
    pub fn vsb_times(&self) -> &[u64] {
        &self.vsb_times
    }

    /// Writing-time reduction `R_ic = t_ic·(n_i − 1)` contributed by putting
    /// character `i` on the stencil, for region `c`.
    #[inline]
    pub fn reduction(&self, i: usize, c: usize) -> u64 {
        self.repeats(i, c) * self.shot_savings[i]
    }

    /// Per-region writing times `T_c` for a given selection.
    ///
    /// # Panics
    ///
    /// Panics if the selection length differs from [`num_chars`].
    ///
    /// [`num_chars`]: Instance::num_chars
    pub fn writing_times(&self, selection: &Selection) -> Vec<u64> {
        assert_eq!(
            selection.len(),
            self.num_chars(),
            "selection length must equal the number of characters"
        );
        let mut times = self.vsb_times.clone();
        for i in selection.iter_selected() {
            for e in self.sparse_row(i) {
                times[e.region as usize] -= e.reduction;
            }
        }
        times
    }

    /// System writing time `T_total = max_c T_c` for a selection (Eqn. (1)).
    pub fn total_writing_time(&self, selection: &Selection) -> u64 {
        self.writing_times(selection).into_iter().max().unwrap_or(0)
    }

    /// Sum of `T_c` over regions; a secondary statistic used by some
    /// baselines that optimize total rather than maximal time.
    pub fn sum_writing_time(&self, selection: &Selection) -> u64 {
        self.writing_times(selection).into_iter().sum()
    }

    /// Number of stencil rows for a 1D instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotRowStructured`] for 2D instances.
    pub fn num_rows(&self) -> Result<usize, ModelError> {
        self.stencil.num_rows().ok_or(ModelError::NotRowStructured)
    }

    /// Writing-time reduction summed over all regions (unweighted profit),
    /// `Σ_c R_ic`. Cached at construction — O(1).
    #[inline]
    pub fn total_reduction(&self, i: usize) -> u64 {
        self.total_reductions[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(30, 40, [4, 6, 5, 5], 4).unwrap(),
            Character::new(50, 40, [2, 2, 5, 5], 7).unwrap(),
        ];
        let repeats = vec![vec![3, 0], vec![1, 5], vec![2, 2]];
        Instance::new(Stencil::with_rows(200, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn vsb_times_cached() {
        let inst = inst();
        // region 0: 3*10 + 1*4 + 2*7 = 48 ; region 1: 0 + 5*4 + 2*7 = 34
        assert_eq!(inst.vsb_times(), &[48, 34]);
    }

    #[test]
    fn writing_time_matches_formula() {
        let inst = inst();
        let sel = Selection::from_indices(3, [0, 2]);
        // region 0: 48 - 3*9 - 2*6 = 9 ; region 1: 34 - 0 - 2*6 = 22
        assert_eq!(inst.writing_times(&sel), vec![9, 22]);
        assert_eq!(inst.total_writing_time(&sel), 22);
        assert_eq!(inst.sum_writing_time(&sel), 31);
    }

    #[test]
    fn empty_selection_gives_vsb_time() {
        let inst = inst();
        let sel = Selection::none(3);
        assert_eq!(inst.total_writing_time(&sel), 48);
    }

    #[test]
    fn full_selection_gives_cp_only_time() {
        let inst = inst();
        let sel = Selection::all(3);
        // region 0: 3+1+2 = 6 ; region 1: 0+5+2 = 7 (each use = 1 shot)
        assert_eq!(inst.writing_times(&sel), vec![6, 7]);
    }

    #[test]
    fn ragged_repeats_rejected() {
        let chars = vec![Character::new(40, 40, [5, 5, 5, 5], 10).unwrap()];
        let err = Instance::new(
            Stencil::new(100, 100).unwrap(),
            chars,
            vec![vec![1], vec![2]],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::RaggedRepeats { .. }));
    }

    #[test]
    fn stencil_rows() {
        let s = Stencil::with_rows(1000, 1000, 40).unwrap();
        assert_eq!(s.num_rows(), Some(25));
        assert!(Stencil::with_rows(10, 10, 0).is_err());
        assert!(Stencil::with_rows(10, 10, 11).is_err());
        assert!(Stencil::new(0, 5).is_err());
    }

    #[test]
    fn sparse_view_matches_dense_rows() {
        let inst = inst();
        for i in 0..inst.num_chars() {
            let mut dense_nonzeros = Vec::new();
            for (c, &t) in inst.repeat_row(i).iter().enumerate() {
                if t > 0 {
                    dense_nonzeros.push(SparseRepeat {
                        region: c as u32,
                        repeats: t,
                        reduction: t * inst.char(i).shot_saving(),
                    });
                }
            }
            assert_eq!(inst.sparse_row(i), &dense_nonzeros[..]);
            assert_eq!(
                inst.total_reduction(i),
                (0..inst.num_regions())
                    .map(|c| inst.reduction(i, c))
                    .sum::<u64>()
            );
            assert_eq!(inst.shot_saving(i), inst.char(i).shot_saving());
        }
    }

    #[test]
    fn from_flat_equals_nested_constructor() {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(30, 40, [4, 6, 5, 5], 4).unwrap(),
        ];
        let nested = Instance::new(
            Stencil::with_rows(200, 80, 40).unwrap(),
            chars.clone(),
            vec![vec![3, 0], vec![1, 5]],
        )
        .unwrap();
        let flat = Instance::from_flat(
            Stencil::with_rows(200, 80, 40).unwrap(),
            chars,
            vec![3, 0, 1, 5],
            2,
        )
        .unwrap();
        assert_eq!(nested, flat);
        assert_eq!(nested.digest(), flat.digest());
    }

    #[test]
    fn from_flat_rejects_bad_shapes() {
        let chars = vec![Character::new(40, 40, [5, 5, 5, 5], 10).unwrap()];
        assert!(matches!(
            Instance::from_flat(Stencil::new(100, 100).unwrap(), chars.clone(), vec![1], 0),
            Err(ModelError::NoRegions)
        ));
        assert!(matches!(
            Instance::from_flat(Stencil::new(100, 100).unwrap(), chars, vec![1, 2, 3], 2),
            Err(ModelError::RaggedRepeats { .. })
        ));
    }
}
