//! Tenant grids and the independent correctness reference: the Figure-1 loop
//! nest (parallel over the outer dimension, scalar row kernels) run on the
//! same generated grid as the path under test.  It shares no schedule, TRAP,
//! serving, shard or SIMD code with the compiled paths it checks.

use std::collections::HashMap;

use pochoir_core::engine::{self, ExecutionPlan};
use pochoir_core::grid::PochoirArray;
use pochoir_core::kernel::{StencilKernel, StencilSpec};
use pochoir_core::simd::SimdPolicy;
use pochoir_runtime::Runtime;
use pochoir_stencils::heat::{self, HeatKernel};
use pochoir_stencils::life::{self, LifeKernel};
use pochoir_stencils::traffic::{digest_grid, heat_grid, life_grid, usizes, wave_grid, DigestBits};
use pochoir_stencils::wave::{self, WaveKernel};
use pochoir_trace::TraceApp;

/// Steps `grid` over `[0, t1)` with the loop nest.
fn loops<T, K, const D: usize>(
    grid: &mut PochoirArray<T, D>,
    spec: StencilSpec<D>,
    kernel: K,
    t1: i64,
) where
    T: Copy + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    let plan = ExecutionPlan::loops_parallel().with_simd(SimdPolicy::Scalar);
    engine::run(grid, &spec, &kernel, 0, t1, &plan, Runtime::global());
}

/// Steps `grid` over `[0, t1)` with the loop nest and digests the final state.
pub fn loops_digest<T, K, const D: usize>(
    mut grid: PochoirArray<T, D>,
    spec: StencilSpec<D>,
    kernel: K,
    t1: i64,
) -> u64
where
    T: DigestBits + Send + Sync + 'static,
    K: StencilKernel<T, D>,
{
    loops(&mut grid, spec, kernel, t1);
    digest_grid(&grid, t1)
}

/// Whether two grids hold the same bits in their final two time slices (the
/// state `digest_grid` folds).
fn same_final_state<T: DigestBits, const D: usize>(
    a: &PochoirArray<T, D>,
    b: &PochoirArray<T, D>,
    t1: i64,
) -> bool {
    [(t1 - 1).max(0), t1].into_iter().all(|t| {
        let (x, y) = (a.snapshot(t), b.snapshot(t));
        x.len() == y.len()
            && x.iter()
                .zip(&y)
                .all(|(p, q)| p.digest_bits() == q.digest_bits())
    })
}

/// A tenant grid of any served app: a request's input, or a drained result.
#[derive(Clone)]
pub enum Grid {
    Heat2d(PochoirArray<f64, 2>),
    Life(PochoirArray<u8, 2>),
    Wave3d(PochoirArray<f64, 3>),
    HeatGiant1d(PochoirArray<f64, 1>),
}

impl Grid {
    /// The deterministic tenant grid of `(app, geometry, tenant)`.
    pub fn new(app: TraceApp, geometry: &[u64], tenant: u32) -> Grid {
        match app {
            TraceApp::Heat2d => Grid::Heat2d(heat_grid(usizes::<2>(geometry), tenant)),
            TraceApp::Life => Grid::Life(life_grid(usizes::<2>(geometry), tenant)),
            TraceApp::Wave3d => Grid::Wave3d(wave_grid(usizes::<3>(geometry), tenant)),
            TraceApp::HeatGiant1d => Grid::HeatGiant1d(heat_grid(usizes::<1>(geometry), tenant)),
        }
    }

    /// The digest of the state at `t1`.
    pub fn digest(&self, t1: i64) -> u64 {
        match self {
            Grid::Heat2d(g) => digest_grid(g, t1),
            Grid::Life(g) => digest_grid(g, t1),
            Grid::Wave3d(g) => digest_grid(g, t1),
            Grid::HeatGiant1d(g) => digest_grid(g, t1),
        }
    }

    /// Steps the grid over `[0, t1)` with the loop nest.
    fn step_loops(&mut self, t1: i64) {
        match self {
            Grid::Heat2d(g) => loops(
                g,
                StencilSpec::new(heat::shape()),
                HeatKernel::default(),
                t1,
            ),
            Grid::Life(g) => loops(g, StencilSpec::new(life::shape()), LifeKernel, t1),
            Grid::Wave3d(g) => loops(
                g,
                StencilSpec::new(wave::shape()),
                WaveKernel::default(),
                t1,
            ),
            Grid::HeatGiant1d(g) => loops(
                g,
                StencilSpec::new(heat::shape()),
                HeatKernel::default(),
                t1,
            ),
        }
    }

    /// Whether `self` and `other` hold the same bits at `t1`.
    fn same_at(&self, other: &Grid, t1: i64) -> bool {
        match (self, other) {
            (Grid::Heat2d(a), Grid::Heat2d(b)) => same_final_state(a, b, t1),
            (Grid::Life(a), Grid::Life(b)) => same_final_state(a, b, t1),
            (Grid::Wave3d(a), Grid::Wave3d(b)) => same_final_state(a, b, t1),
            (Grid::HeatGiant1d(a), Grid::HeatGiant1d(b)) => same_final_state(a, b, t1),
            _ => false,
        }
    }
}

/// A request's input grid and the loop nest's result for it.
struct Expected {
    input: Grid,
    result: Grid,
    digest: u64,
}

/// Inputs and reference results of tenant requests, memoized on everything a
/// tenant grid and its result are pure functions of.
#[derive(Default)]
pub struct TenantReference {
    memo: HashMap<(TraceApp, Vec<u64>, u32, i64), Expected>,
}

impl TenantReference {
    fn expected(&mut self, app: TraceApp, geometry: &[u64], tenant: u32, t1: i64) -> &Expected {
        self.memo
            .entry((app, geometry.to_vec(), tenant, t1))
            .or_insert_with(|| {
                let input = Grid::new(app, geometry, tenant);
                let mut result = input.clone();
                result.step_loops(t1);
                let digest = result.digest(t1);
                Expected {
                    input,
                    result,
                    digest,
                }
            })
    }

    /// A copy of the input grid of request `(app, geometry, tenant)`.
    pub fn input(&mut self, app: TraceApp, geometry: &[u64], tenant: u32, t1: i64) -> Grid {
        self.expected(app, geometry, tenant, t1).input.clone()
    }

    /// Whether `output` holds the loop nest's result for the request, bit for
    /// bit, at `t1`.
    pub fn matches(
        &mut self,
        app: TraceApp,
        geometry: &[u64],
        tenant: u32,
        t1: i64,
        output: &Grid,
    ) -> bool {
        output.same_at(&self.expected(app, geometry, tenant, t1).result, t1)
    }

    /// The digest the request's result must have.
    pub fn digest(&mut self, app: TraceApp, geometry: &[u64], tenant: u32, t1: i64) -> u64 {
        self.expected(app, geometry, tenant, t1).digest
    }
}
