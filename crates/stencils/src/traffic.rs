//! Deterministic multi-tenant traffic helpers shared by the trace-replay harness
//! (`pochoir-bench`) and the network service (`pochoir-serve`).
//!
//! The whole "bitwise identical across serving paths" story rests on two
//! conventions that every harness must agree on:
//!
//! * **Tenant grids are pure functions of `(app, geometry, tenant)`** — a trace
//!   record carries no grid data, and a network client sends grids it built with
//!   these exact functions, so an in-process replay of a recorded trace
//!   reconstructs the very same inputs the live server saw.
//! * **The digest is FNV-1a over the IEEE bit patterns of the final two time
//!   slices** — "equal digest" means bitwise-equal grids, not approximately
//!   equal, and hashing both live slices makes the claim cover the full final
//!   state of depth-2 stencils like wave.
//!
//! These functions were born inside the replay harness; they live here so the
//! wire client, the live server's tests and the replay harness cannot drift
//! apart.

use pochoir_core::boundary::Boundary;
use pochoir_core::grid::PochoirArray;

use crate::{heat, life, wave};

/// Element types the traffic digest can see through.  Floats hash their IEEE
/// bit patterns, so "equal digest" means bitwise-equal grids, not
/// approximately-equal.
pub trait DigestBits: Copy {
    /// The element's canonical 64-bit pattern (IEEE bits for floats).
    fn digest_bits(self) -> u64;
}

impl DigestBits for f64 {
    fn digest_bits(self) -> u64 {
        self.to_bits()
    }
}

impl DigestBits for u8 {
    fn digest_bits(self) -> u64 {
        u64::from(self)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a over flat value slices, in order — the digest a network client folds
/// over the two result slices a fetch returns.  [`digest_grid`] is this same
/// fold over a grid's final two snapshots, so a client-side digest of fetched
/// bytes equals a server-side digest of the drained grid.
pub fn digest_values<T: DigestBits>(slices: &[Vec<T>]) -> u64 {
    digest_iter(slices.iter().flatten().copied())
}

/// [`digest_values`] over one flat run of values: the fold never sees slice
/// boundaries, so a payload can be digested as it is read, without being
/// split into slices first.
pub fn digest_iter<T: DigestBits>(values: impl IntoIterator<Item = T>) -> u64 {
    values
        .into_iter()
        .fold(FNV_OFFSET, |hash, v| fnv_fold(hash, v.digest_bits()))
}

/// FNV-1a over the final two time slices of a drained grid (`t1 - 1` then `t1`) —
/// both slices of the cyclic buffer are live results for depth-2 stencils like
/// wave, and hashing both makes the bitwise claim cover the full final state.
pub fn digest_grid<T: DigestBits, const D: usize>(grid: &PochoirArray<T, D>, t1: i64) -> u64 {
    let slices = [grid.snapshot((t1 - 1).max(0)), grid.snapshot(t1)];
    digest_values(&slices)
}

/// Deterministic tenant grid for a heat geometry: the shared smooth-bump initial
/// condition plus a per-tenant hot spot.
pub fn heat_grid<const D: usize>(sizes: [usize; D], tenant: u32) -> PochoirArray<f64, D> {
    let mut a = heat::build(sizes, Boundary::Periodic);
    let mut spot = [0i64; D];
    for d in 0..D {
        spot[d] = i64::from(tenant) % sizes[d] as i64;
    }
    a.set(0, spot, 100.0 + f64::from(tenant));
    a
}

/// Deterministic tenant grid for a life geometry: the shared random soup, with
/// the tenant id folded into the fill seed.
pub fn life_grid(sizes: [usize; 2], tenant: u32) -> PochoirArray<u8, 2> {
    life::build(sizes, 300 + u64::from(tenant))
}

/// Deterministic wave grid: the shared centred pulse plus a per-tenant bump on
/// both time slices (the pulse starts at rest, so both slices carry it).
pub fn wave_grid(sizes: [usize; 3], tenant: u32) -> PochoirArray<f64, 3> {
    let mut a = wave::build(sizes);
    let spot = [
        i64::from(tenant) % sizes[0] as i64,
        i64::from(tenant) % sizes[1] as i64,
        i64::from(tenant) % sizes[2] as i64,
    ];
    let v = 1.5 + f64::from(tenant) * 0.25;
    a.set(0, spot, v);
    a.set(1, spot, v);
    a
}

/// Converts a trace geometry (`u64` extents) into the `[usize; D]` form the
/// serve presets take.  Panics if the geometry has fewer than `D` extents.
pub fn usizes<const D: usize>(geometry: &[u64]) -> [usize; D] {
    let mut sizes = [0usize; D];
    for (d, &g) in geometry.iter().enumerate().take(D) {
        sizes[d] = g as usize;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_bitwise() {
        let a = digest_values(&[vec![1.0f64, 2.0]]);
        let b = digest_values(&[vec![2.0f64, 1.0]]);
        assert_ne!(a, b);
        // -0.0 == 0.0 numerically but differs bitwise; the digest must see that.
        assert_ne!(
            digest_values(&[vec![0.0f64]]),
            digest_values(&[vec![-0.0f64]])
        );
    }

    #[test]
    fn grid_digest_equals_value_digest_of_snapshots() {
        let g = heat_grid([6, 5], 3);
        let slices = [g.snapshot(0), g.snapshot(0)];
        assert_eq!(digest_grid(&g, 0), digest_values(&slices));
    }

    #[test]
    fn tenant_grids_are_reproducible() {
        let a = heat_grid([8, 8], 5);
        let b = heat_grid([8, 8], 5);
        assert_eq!(a.snapshot(0), b.snapshot(0));
        let c = heat_grid([8, 8], 6);
        assert_ne!(a.snapshot(0), c.snapshot(0));
        assert_eq!(
            life_grid([6, 6], 2).snapshot(0),
            life_grid([6, 6], 2).snapshot(0)
        );
        assert_eq!(
            wave_grid([4, 4, 4], 1).snapshot(1),
            wave_grid([4, 4, 4], 1).snapshot(1)
        );
    }
}
