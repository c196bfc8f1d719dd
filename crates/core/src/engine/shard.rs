//! Halo-exchanged tile pipelines for grids too large to compile whole.
//!
//! [`schedule::should_compile`] rejects geometries whose flat arena would blow the
//! leaf budget (e.g. an uncoarsened 4096×4096 grid), and the executor historically
//! fell back to the storeless recursive walker for them.  This module adds a third
//! route: split the grid along its outermost axis into K tiles, pad each tile with a
//! halo of `reach₀ × W` rows (exactly the light cone of a W-step window), compile
//! one [`CompiledProgram`] per *distinct tile geometry* through the serving registry
//! (identical interior tiles share a single compile), and run the time range as a
//! two-phase pipeline:
//!
//! 1. **Compute** — every tile advances one W-step window through its compiled
//!    schedule, in parallel (`for_each_with_grain`).
//! 2. **Exchange** — seam strips are copied between neighbours so each tile's halo
//!    rows again hold the owning tile's freshly computed interior values.
//!
//! # The bitwise guarantee
//!
//! Sharded execution is bitwise identical to running the same plan unsharded.  The
//! invariant is inductive over windows: at every window boundary each tile's full
//! extent (interior *and* halo) equals the corresponding rows of the unsharded
//! array, in **every** storage slot.  Scatter establishes it (each tile starts as an
//! exact replica of its global rows: all `depth + 1` slots are copied, slot-for-slot,
//! because both arrays share the time-slice layout).  During a window, garbage can
//! creep at most `reach₀` rows inward per time step from a tile's extent edge — so
//! after W steps it reaches exactly the interior/halo seam and never an interior
//! cell.  The exchange then restores the invariant by re-copying every halo row from
//! its owner's (correct) interior, again in every slot.  Gather finally copies every
//! interior row of every slot back, reassembling the giant exactly.
//!
//! Halo rows truncated at a non-periodic global edge need no copy at all: there the
//! tile's extent edge *is* the global domain edge, and the tile's boundary resolves
//! out-of-range reads identically to the global run (coordinate-dependent
//! [`Boundary::ConstantFn`] boundaries are re-based onto global coordinates;
//! [`Boundary::Custom`] probes the array itself and is the one boundary this module
//! refuses to shard).

use crate::boundary::{wrap, AxisRule, Boundary};
use crate::engine::executor::CompiledProgram;
use crate::engine::plan::{Coarsening, ExecutionPlan, Sharding};
use crate::engine::schedule;
use crate::engine::serving::{try_shared_program, RegistryLookup, ServeError};
use crate::grid::PochoirArray;
use crate::kernel::{StencilKernel, StencilSpec};
use pochoir_runtime::{Counter, Parallelism};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Largest window height auto-sharding will pick.  The halo (and hence the redundant
/// recompute near every seam) grows linearly with the window, so tall windows only
/// pay off when tiles are wide; 16 keeps the redundant fraction of realistic giants
/// around a percent while still amortizing the exchange over many time steps.
pub const MAX_SHARD_WINDOW: i64 = 16;

/// Tile-local mutexes are transient per-execute state; a poisoned lock means a tile
/// kernel panicked, and the panic is already propagating — recover the data.
fn lock_tile<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smallest tile count in `[k_floor, n0]` whose tiles compile, or `None` if even
/// one-row tiles do not.  More tiles make each tile strictly narrower, so for a
/// fixed window `compilable` is monotone in K — binary search applies.
fn minimal_compilable_k(k_floor: i64, n0: i64, compilable: impl Fn(i64) -> bool) -> Option<i64> {
    if !compilable(n0) {
        return None;
    }
    let mut lo = k_floor;
    let mut hi = n0;
    if compilable(lo) {
        hi = lo;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if compilable(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// One outermost-axis tile of a [`ShardPlan`]: `len` owned rows starting at global
/// row `start`, padded below/above by `lo_halo`/`hi_halo` ghost rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// First global row this tile owns.
    pub start: i64,
    /// Number of rows this tile owns (its interior).
    pub len: i64,
    /// Ghost rows below the interior (toward row 0).
    pub lo_halo: i64,
    /// Ghost rows above the interior.
    pub hi_halo: i64,
}

impl Tile {
    /// Total outermost-axis extent of the tile's array (halo + interior + halo).
    pub fn extent(&self) -> i64 {
        self.lo_halo + self.len + self.hi_halo
    }

    /// Global row of the tile's local row 0 (may be negative or ≥ n₀ only for
    /// periodic plans, where it wraps).
    pub fn origin(&self) -> i64 {
        self.start - self.lo_halo
    }
}

/// Why a grid could not take the sharded route; the executor falls back to the
/// recursive walker on every variant, so sharding never costs correctness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The array registered a [`Boundary::Custom`], which probes the array itself
    /// and therefore cannot be reproduced on a tile.
    UnsupportedBoundary,
    /// No tiling of this grid yields compilable tiles within the halo-overhead
    /// budget (auto mode only; explicit [`Sharding::Tiles`] always finds one).
    NoGeometry,
    /// Compiling a tile program through the serving registry failed.
    Compile(ServeError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnsupportedBoundary => {
                write!(
                    f,
                    "custom boundaries cannot be sharded (they probe the array)"
                )
            }
            ShardError::NoGeometry => {
                write!(f, "no tile geometry is compilable within the halo budget")
            }
            ShardError::Compile(e) => write!(f, "tile compilation failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// What one sharded execution did: geometry, windows, and copy/registry traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Number of tiles the grid was split into.
    pub tiles: u64,
    /// Distinct tile extents — each cost one registry lookup; interior tiles of
    /// equal extent shared a single compiled program.
    pub distinct_geometries: u64,
    /// Windows executed (pipeline rounds).
    pub windows: u64,
    /// Window height W of the pipeline.
    pub window: i64,
    /// Halo width in rows (`reach₀ × W`).
    pub halo: i64,
    /// Storage elements copied by halo exchanges (excludes scatter/gather).
    pub halo_cells: u64,
    /// Tile-program registry lookups served by an already-compiled session.
    pub registry_hits: u64,
    /// Tile-program registry lookups that compiled fresh.
    pub registry_misses: u64,
}

/// A split of a D-dimensional grid into outermost-axis tiles plus the pipeline
/// window height their halos were sized for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan<const D: usize> {
    sizes: [i64; D],
    window: i64,
    halo: i64,
    periodic0: bool,
    tiles: Vec<Tile>,
}

impl<const D: usize> ShardPlan<D> {
    /// Builds an explicit plan from per-tile interior row counts (`tile_lens` must
    /// be positive and sum to the outermost extent).  The halo is `reach0 × window`,
    /// truncated at the global edges unless `periodic0`.
    ///
    /// Intended for tests and benchmarks pinning a geometry;
    /// [`ShardPlan::auto`] is the production constructor.
    pub fn new(
        sizes: [i64; D],
        reach0: i64,
        window: i64,
        tile_lens: &[i64],
        periodic0: bool,
    ) -> Self {
        assert!(window >= 1, "shard window must be at least 1");
        assert!(reach0 >= 0, "axis-0 reach must be non-negative");
        assert!(
            !tile_lens.is_empty(),
            "a shard plan needs at least one tile"
        );
        assert!(
            tile_lens.iter().all(|&l| l > 0),
            "tile interiors must be non-empty"
        );
        let n0 = sizes[0];
        assert_eq!(
            tile_lens.iter().sum::<i64>(),
            n0,
            "tile interiors must partition the outermost extent"
        );
        let halo = reach0 * window;
        let mut tiles = Vec::with_capacity(tile_lens.len());
        let mut start = 0i64;
        for &len in tile_lens {
            let (lo_halo, hi_halo) = if periodic0 {
                (halo, halo)
            } else {
                (halo.min(start), halo.min(n0 - (start + len)))
            };
            tiles.push(Tile {
                start,
                len,
                lo_halo,
                hi_halo,
            });
            start += len;
        }
        ShardPlan {
            sizes,
            window,
            halo,
            periodic0,
            tiles,
        }
    }

    /// Chooses a tile geometry for a grid that failed [`schedule::should_compile`]:
    /// the tallest window `W ≤ min(height, MAX_SHARD_WINDOW)` for which some tile
    /// count `K` makes every tile compilable — preferring the smallest such `K`
    /// (fewest seams) and requiring the redundant halo rows to stay under half the
    /// grid.  [`Sharding::Tiles`] pins `K` instead and only searches the window.
    ///
    /// Returns `None` when no geometry qualifies (the caller falls back to the
    /// recursive walker).
    pub fn auto(
        sizes: [i64; D],
        reach0: i64,
        coarsening: &Coarsening<D>,
        height: i64,
        workers: usize,
        periodic0: bool,
        sharding: Sharding,
    ) -> Option<Self> {
        let n0 = sizes[0];
        if n0 < 1 || height < 1 {
            return None;
        }
        let w_cap = height.clamp(1, MAX_SHARD_WINDOW);
        let compilable = |k: i64, w: i64| {
            let widest = (n0 + k - 1) / k + 2 * reach0 * w;
            let mut tile_sizes = sizes;
            tile_sizes[0] = widest;
            schedule::should_compile(tile_sizes, coarsening, w)
        };
        let build = |k: i64, w: i64| {
            let q = n0 / k;
            let r = n0 % k;
            let lens: Vec<i64> = (0..k).map(|i| if i < r { q + 1 } else { q }).collect();
            Self::new(sizes, reach0, w, &lens, periodic0)
        };
        match sharding {
            Sharding::Off => None,
            Sharding::Tiles(k) => {
                let k = i64::from(k).clamp(1, n0);
                let w = (1..=w_cap).rev().find(|&w| compilable(k, w)).unwrap_or(1);
                Some(build(k, w))
            }
            Sharding::Auto => {
                let k_floor = (workers.max(2) as i64).min(n0);
                for w in (1..=w_cap).rev() {
                    if let Some(k) = minimal_compilable_k(k_floor, n0, |k| compilable(k, w)) {
                        // Redundant recompute lives in the halos: keep the ghost rows
                        // (2 per seam side per tile) under half the owned rows.
                        if 2 * k * reach0 * w <= n0 {
                            return Some(build(k, w));
                        }
                    }
                }
                None
            }
        }
    }

    /// [`ShardPlan::auto`] with the window pinned to exactly `window` — the variant
    /// serving pipelines need, where the exchange cadence must equal the drain's
    /// per-window chunk height.  Unlike `auto` there is no halo-overhead veto:
    /// submitting sharded is an explicit request, so auto mode only searches for the
    /// fewest compilable tiles (still at least two, so the pipeline has seams to
    /// exchange and tenants to schedule).
    pub(crate) fn for_window(
        sizes: [i64; D],
        reach0: i64,
        coarsening: &Coarsening<D>,
        window: i64,
        workers: usize,
        periodic0: bool,
        sharding: Sharding,
    ) -> Option<Self> {
        let n0 = sizes[0];
        if n0 < 1 || window < 1 {
            return None;
        }
        let compilable = |k: i64| {
            let widest = (n0 + k - 1) / k + 2 * reach0 * window;
            let mut tile_sizes = sizes;
            tile_sizes[0] = widest;
            schedule::should_compile(tile_sizes, coarsening, window)
        };
        let build = |k: i64| {
            let q = n0 / k;
            let r = n0 % k;
            let lens: Vec<i64> = (0..k).map(|i| if i < r { q + 1 } else { q }).collect();
            Self::new(sizes, reach0, window, &lens, periodic0)
        };
        match sharding {
            Sharding::Off => None,
            Sharding::Tiles(k) => Some(build(i64::from(k).clamp(1, n0))),
            Sharding::Auto => {
                let k_floor = (workers.max(2) as i64).min(n0);
                minimal_compilable_k(k_floor, n0, compilable).map(build)
            }
        }
    }

    /// The grid extents this plan tiles.
    pub fn sizes(&self) -> [i64; D] {
        self.sizes
    }

    /// The pipeline window height W the halos were sized for.
    pub fn window(&self) -> i64 {
        self.window
    }

    /// The untruncated halo width in rows (`reach₀ × W`).
    pub fn halo(&self) -> i64 {
        self.halo
    }

    /// Whether axis 0 wraps (halos cross the global edges cyclically).
    pub fn periodic0(&self) -> bool {
        self.periodic0
    }

    /// The tiles, ordered by `start` (they partition `[0, n₀)`).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Global row backing `tile`'s local row `local` (wrapping on periodic plans).
    fn global_row(&self, tile: &Tile, local: i64) -> i64 {
        let g = tile.origin() + local;
        if self.periodic0 {
            wrap(g, self.sizes[0])
        } else {
            debug_assert!(g >= 0 && g < self.sizes[0]);
            g
        }
    }

    /// The tile owning global row `g` and `g`'s local row there.
    fn owner_of(&self, g: i64) -> (usize, i64) {
        let idx = self.tiles.partition_point(|t| t.start <= g) - 1;
        let tile = &self.tiles[idx];
        debug_assert!(g >= tile.start && g < tile.start + tile.len);
        (idx, tile.lo_halo + (g - tile.start))
    }

    /// Runs kernel-invocation times `[t0, t1)` on `array` through this plan's tile
    /// pipeline.  Bitwise identical to running the same `plan` unsharded; see the
    /// module docs for the argument.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<T, K, P>(
        &self,
        array: &mut PochoirArray<T, D>,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        kernel: &K,
        t0: i64,
        t1: i64,
        par: &P,
    ) -> Result<ShardReport, ShardError>
    where
        T: Copy + Send + Sync + 'static,
        K: StencilKernel<T, D>,
        P: Parallelism,
    {
        if matches!(array.boundary(), Boundary::Custom(_)) {
            return Err(ShardError::UnsupportedBoundary);
        }
        let mut report = ShardReport {
            tiles: self.tiles.len() as u64,
            window: self.window,
            halo: self.halo,
            ..ShardReport::default()
        };
        if t1 <= t0 {
            return Ok(report);
        }
        let programs = self.tile_programs(spec, plan, &mut report)?;
        for (_, lookup) in programs.values() {
            lookup.report_to(par);
        }
        let slices = array.time_slices() as i64;
        let tile_arrays: Vec<Mutex<PochoirArray<T, D>>> = self
            .scatter(array, t0)
            .into_iter()
            .map(Mutex::new)
            .collect();

        // The two-phase pipeline: compute a window on every tile in parallel, then
        // (between windows) re-sync the halo seams serially.
        let indices: Vec<usize> = (0..self.tiles.len()).collect();
        let mut w0 = t0;
        while w0 < t1 {
            let w1 = (w0 + self.window).min(t1);
            par.for_each_with_grain(&indices, 1, |&i| {
                let tile_array = &mut *lock_tile(&tile_arrays[i]);
                programs[&self.tiles[i].extent()]
                    .0
                    .run(tile_array, kernel, w0, w1, par);
            });
            report.windows += 1;
            par.note(Counter::ShardTiles, self.tiles.len() as u64);
            if w1 < t1 {
                report.halo_cells += self.exchange(&tile_arrays, w1, slices);
            }
            w0 = w1;
        }
        par.note(Counter::ShardHaloCells, report.halo_cells);

        let tiles: Vec<PochoirArray<T, D>> = tile_arrays
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.gather(array, &tiles, t1);
        Ok(report)
    }

    /// Compiles one program per *distinct tile extent* through the serving registry
    /// (interior tiles of equal extent share a compile), recording hit/miss counts
    /// in `report`.  Tile programs carry the parent plan verbatim except for
    /// sharding, which is switched off: a tile that *still* fails `should_compile`
    /// runs its windows through the recursive walker instead of recursing into
    /// another shard.
    pub(crate) fn tile_programs(
        &self,
        spec: &StencilSpec<D>,
        plan: &ExecutionPlan<D>,
        report: &mut ShardReport,
    ) -> Result<HashMap<i64, (Arc<CompiledProgram<D>>, RegistryLookup)>, ShardError> {
        let tile_plan = plan.with_sharding(Sharding::Off);
        let mut programs = HashMap::new();
        for tile in &self.tiles {
            let extent = tile.extent();
            if programs.contains_key(&extent) {
                continue;
            }
            let mut tile_sizes = self.sizes;
            tile_sizes[0] = extent;
            let (program, lookup) = try_shared_program(spec, &tile_plan, tile_sizes, self.window)
                .map_err(ShardError::Compile)?;
            if lookup.hit {
                report.registry_hits += 1;
            } else {
                report.registry_misses += 1;
            }
            programs.insert(extent, (program, lookup));
        }
        report.distinct_geometries = programs.len() as u64;
        Ok(programs)
    }

    /// Scatter: builds one array per tile as an exact replica of its global rows.
    /// Copying `slices` consecutive times touches every storage slot exactly once,
    /// and tile and giant share the slot layout (same depth, same wrap), so this is
    /// slot-for-slot regardless of which logical times the caller has filled.  The
    /// caller must have rejected [`Boundary::Custom`] already.
    pub(crate) fn scatter<T>(&self, array: &PochoirArray<T, D>, t0: i64) -> Vec<PochoirArray<T, D>>
    where
        T: Copy + Send + Sync + 'static,
    {
        let slices = array.time_slices() as i64;
        let depth = array.time_slices() - 1;
        let fill = array.get_interior(t0, [0; D]);
        let boundary = array.boundary().clone();
        self.tiles
            .iter()
            .map(|tile| {
                let mut tile_sizes = array.sizes();
                tile_sizes[0] = tile.extent() as usize;
                let mut tile_array = PochoirArray::with_layout(tile_sizes, depth, fill);
                tile_array.register_boundary(rebase_boundary(&boundary, tile.origin()));
                for tau in (t0 - slices + 1)..=t0 {
                    for local in 0..tile.extent() {
                        let g = self.global_row(tile, local);
                        tile_array
                            .slab_mut(tau, local)
                            .copy_from_slice(array.slab(tau, g));
                    }
                }
                tile_array
            })
            .collect()
    }

    /// Gather: every global row is exactly one tile's interior row; copying all
    /// slots of all interior rows reassembles the giant bitwise.
    pub(crate) fn gather<T: Copy>(
        &self,
        array: &mut PochoirArray<T, D>,
        tiles: &[PochoirArray<T, D>],
        t1: i64,
    ) {
        let slices = array.time_slices() as i64;
        for (tile, tile_array) in self.tiles.iter().zip(tiles) {
            for tau in (t1 - slices + 1)..=t1 {
                for r in 0..tile.len {
                    array
                        .slab_mut(tau, tile.start + r)
                        .copy_from_slice(tile_array.slab(tau, tile.lo_halo + r));
                }
            }
        }
    }

    /// Copies every halo row of every tile from its owner's interior, in every
    /// storage slot — restoring the replica invariant at the window boundary ending
    /// at kernel time `w1`.  Returns the number of storage elements copied.
    pub(crate) fn exchange<T: Copy>(
        &self,
        tile_arrays: &[Mutex<PochoirArray<T, D>>],
        w1: i64,
        slices: i64,
    ) -> u64 {
        let mut copied = 0u64;
        let mut scratch: Vec<T> = Vec::new();
        for (i, tile) in self.tiles.iter().enumerate() {
            let halo_rows = (0..tile.lo_halo).chain(tile.lo_halo + tile.len..tile.extent());
            for local in halo_rows {
                let g = self.global_row(tile, local);
                let (owner, owner_local) = self.owner_of(g);
                for tau in (w1 - slices + 1)..=w1 {
                    // Through a scratch buffer: with few tiles (or a periodic K=1
                    // plan) a tile can own its own halo rows, and the source and
                    // destination slab then live in the same array.
                    scratch.clear();
                    scratch
                        .extend_from_slice(lock_tile(&tile_arrays[owner]).slab(tau, owner_local));
                    lock_tile(&tile_arrays[i])
                        .slab_mut(tau, local)
                        .copy_from_slice(&scratch);
                    copied += scratch.len() as u64;
                }
            }
        }
        copied
    }
}

/// The tile-local equivalent of a global boundary.  Value boundaries are
/// position-independent and transfer verbatim; coordinate-dependent constants are
/// re-based so a resolution at a (truncated-halo) global edge produces the global
/// value.  Everywhere else tiles resolve only garbage-cone reads, where any value
/// is acceptable.
fn rebase_boundary<T: Copy + 'static, const D: usize>(
    boundary: &Boundary<T, D>,
    origin: i64,
) -> Boundary<T, D> {
    match boundary {
        Boundary::ConstantFn(f) => {
            let f = Arc::clone(f);
            Boundary::constant_fn(move |t, mut x: [i64; D]| {
                x[0] += origin;
                f(t, x)
            })
        }
        other => other.clone(),
    }
}

/// Whether `boundary` wraps on axis 0 (tiles then take full cyclic halos instead of
/// truncating at the global edges).
pub(crate) fn wraps_axis0<T: Copy, const D: usize>(boundary: &Boundary<T, D>) -> bool {
    match boundary {
        Boundary::Periodic => true,
        Boundary::Mixed(rules) => matches!(rules[0], AxisRule::Periodic),
        _ => false,
    }
}

/// The executor's sharded fallback: picks a geometry for `array` (honouring
/// `plan.sharding`) and executes `[t0, t1)` through it.  Errors mean "not sharded";
/// the caller falls back to the recursive walker.
pub(crate) fn execute<T, K, P, const D: usize>(
    array: &mut PochoirArray<T, D>,
    spec: &StencilSpec<D>,
    plan: &ExecutionPlan<D>,
    kernel: &K,
    t0: i64,
    t1: i64,
    par: &P,
) -> Result<ShardReport, ShardError>
where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
    P: Parallelism,
{
    if matches!(array.boundary(), Boundary::Custom(_)) {
        return Err(ShardError::UnsupportedBoundary);
    }
    let shard_plan = ShardPlan::auto(
        array.sizes_i64(),
        spec.reach()[0],
        &plan.coarsening,
        t1 - t0,
        par.num_workers(),
        wraps_axis0(array.boundary()),
        plan.sharding,
    )
    .ok_or(ShardError::NoGeometry)?;
    shard_plan.execute(array, spec, plan, kernel, t0, t1, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plan::Coarsening;

    #[test]
    fn explicit_plan_truncates_edge_halos() {
        let plan = ShardPlan::<1>::new([100], 1, 4, &[40, 35, 25], false);
        assert_eq!(plan.halo(), 4);
        let tiles = plan.tiles();
        assert_eq!(tiles[0].lo_halo, 0);
        assert_eq!(tiles[0].hi_halo, 4);
        assert_eq!(tiles[1].lo_halo, 4);
        assert_eq!(tiles[1].hi_halo, 4);
        assert_eq!(tiles[2].lo_halo, 4);
        assert_eq!(tiles[2].hi_halo, 0);
    }

    #[test]
    fn periodic_plan_keeps_full_halos_and_wraps() {
        let plan = ShardPlan::<1>::new([60], 2, 3, &[30, 30], true);
        let tiles = plan.tiles();
        assert_eq!(tiles[0].lo_halo, 6);
        assert_eq!(tiles[0].origin(), -6);
        assert_eq!(plan.global_row(&tiles[0], 0), 54);
        assert_eq!(plan.owner_of(54), (1, 6 + 24));
    }

    #[test]
    fn auto_finds_a_geometry_for_an_uncompilable_giant() {
        let sizes = [4096, 4096];
        let coarsening = Coarsening::none();
        assert!(!schedule::should_compile(sizes, &coarsening, 8));
        let plan = ShardPlan::auto(sizes, 1, &coarsening, 8, 4, false, Sharding::Auto)
            .expect("giant should be shardable");
        let widest = plan.tiles().iter().map(Tile::extent).max().unwrap();
        let mut tile_sizes = sizes;
        tile_sizes[0] = widest;
        assert!(schedule::should_compile(
            tile_sizes,
            &coarsening,
            plan.window()
        ));
        assert_eq!(plan.tiles().iter().map(|t| t.len).sum::<i64>(), 4096);
    }

    #[test]
    fn auto_respects_forced_tile_count() {
        let plan = ShardPlan::auto(
            [1000],
            1,
            &Coarsening::none(),
            16,
            4,
            false,
            Sharding::Tiles(7),
        )
        .expect("forced tiling always yields a plan");
        assert_eq!(plan.tiles().len(), 7);
        // Remainder rows go to the leading tiles, one each.
        assert_eq!(plan.tiles()[0].len - plan.tiles()[6].len, 1);
    }

    #[test]
    fn auto_declines_when_sharding_is_off() {
        assert_eq!(
            ShardPlan::auto([64], 1, &Coarsening::none(), 4, 2, false, Sharding::Off),
            None
        );
    }
}
