//! Range-limited pairwise forces with cell lists.
//!
//! The computation Anton 3's PPIMs accelerate (§II-A): for all atom pairs
//! separated by less than the cutoff radius, evaluate a pairwise force.
//! We use a cutoff-shifted Lennard-Jones potential (energy continuous at
//! the cutoff) and a cell list so force evaluation is O(N).
//!
//! The cell-list kernel [`compute_forces`] finds each candidate pair's
//! periodic image without a division or a `round`. For positions in
//! `[0, L]` a displacement `dk` lies in `[-L, L]`, so
//! [`System::min_image`]'s `(dk / L).round()` is −1, 0 or 1. Division and
//! `round` are monotone and odd-symmetric, so that image is decided by one
//! per-box threshold `h` — the smallest `dk >= 0` with
//! `(dk / L).round() >= 1` — and the kernel's displacements are
//! bit-identical to `min_image`'s. [`compute_forces_naive`] keeps calling
//! `min_image` and stays the oracle.

use crate::system::{System, WaterParams};

/// The result of one force evaluation.
#[derive(Clone, Debug)]
pub struct Forces {
    /// Per-atom total force, kcal/(mol·Å).
    pub f: Vec<[f64; 3]>,
    /// Total potential energy, kcal/mol.
    pub potential: f64,
    /// Number of interacting pairs found (the PPIM workload measure).
    pub pair_count: u64,
}

/// A uniform-grid cell list over a periodic box.
#[derive(Clone, Debug)]
pub struct CellList {
    dims: [usize; 3],
    cells: Vec<Vec<u32>>,
}

impl CellList {
    /// Bins atoms into cells at least `cutoff` wide.
    ///
    /// # Panics
    /// Panics if the box is smaller than one cutoff in any dimension.
    pub fn build(sys: &System, cutoff: f64) -> CellList {
        let mut dims = [0usize; 3];
        for (k, dk) in dims.iter_mut().enumerate() {
            *dk = (sys.box_len[k] / cutoff).floor().max(1.0) as usize;
            assert!(
                sys.box_len[k] >= cutoff,
                "box dimension {k} ({}) smaller than cutoff {cutoff}",
                sys.box_len[k]
            );
        }
        let mut cells = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        for (i, r) in sys.pos.iter().enumerate() {
            let mut c = [0usize; 3];
            for k in 0..3 {
                c[k] = ((r[k] / sys.box_len[k] * dims[k] as f64) as usize).min(dims[k] - 1);
            }
            cells[Self::index(dims, c)].push(i as u32);
        }
        CellList { dims, cells }
    }

    fn index(dims: [usize; 3], c: [usize; 3]) -> usize {
        (c[2] * dims[1] + c[1]) * dims[0] + c[0]
    }

    /// The 27-cell neighborhood (with wraparound) of cell `c` and its
    /// length, deduplicated when the grid is narrower than three cells.
    fn neighborhood(&self, c: [usize; 3]) -> ([usize; 27], usize) {
        let mut out = [0usize; 27];
        let mut len = 0;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let n = [
                        (c[0] as i64 + dx).rem_euclid(self.dims[0] as i64) as usize,
                        (c[1] as i64 + dy).rem_euclid(self.dims[1] as i64) as usize,
                        (c[2] as i64 + dz).rem_euclid(self.dims[2] as i64) as usize,
                    ];
                    let idx = Self::index(self.dims, n);
                    if !out[..len].contains(&idx) {
                        out[len] = idx;
                        len += 1;
                    }
                }
            }
        }
        (out, len)
    }
}

/// The smallest `dk >= 0` that [`System::min_image`] wraps in a box
/// dimension of length `l`, i.e. with `(dk / l).round() >= 1.0`.
///
/// `(0.5 * l) / l` is exactly 0.5, which rounds to 1, so the search starts
/// there and steps down one ulp while the value below still rounds to 1.
/// For every normal `l` it stops at once, since `next_down(0.5 * l) / l`
/// rounds to below 0.5; searching keeps `h` defined by `round` itself
/// rather than by that argument.
fn image_threshold(l: f64) -> f64 {
    let mut h = 0.5 * l;
    while (h.next_down() / l).round() >= 1.0 {
        h = h.next_down();
    }
    h
}

/// [`System::min_image`]'s displacement for one dimension, given the
/// box length `l` and its [`image_threshold`] `h`. Requires
/// `-l <= dk <= l`, where `(dk / l).round()` is −1, 0 or 1.
#[inline]
fn image(dk: f64, l: f64, h: f64) -> f64 {
    // `min_image` subtracts `l * (dk / l).round()`. Subtracting -0.0 in
    // the middle band matches its ±0.0 for every `dk`, signed zeros
    // included.
    let shift = if dk >= h {
        l
    } else if dk <= -h {
        -l
    } else {
        -0.0
    };
    dk - shift
}

/// Evaluates cutoff-shifted Lennard-Jones forces using a cell list.
///
/// Bit-identical to evaluating every candidate pair with
/// [`System::min_image`], without its per-pair division and `round`:
/// each dimension's image is selected by comparing the displacement with
/// a threshold computed once per call (see the [module docs](self)).
/// Requires every position to lie in `[0, box_len]`, as [`System::pos`]
/// documents and [`Simulation::step`](crate::integrate::Simulation::step)
/// maintains.
pub fn compute_forces(sys: &System, params: &WaterParams) -> Forces {
    debug_assert!(
        sys.pos
            .iter()
            .all(|r| (0..3).all(|k| (0.0..=sys.box_len[k]).contains(&r[k]))),
        "positions must lie in [0, box_len]"
    );
    let list = CellList::build(sys, params.cutoff);
    let l = sys.box_len;
    let h = l.map(image_threshold);
    let mut f = vec![[0.0f64; 3]; sys.n];
    let mut potential = 0.0;
    let mut pair_count = 0u64;
    let rc2 = params.cutoff * params.cutoff;
    let sigma2 = params.sigma * params.sigma;
    // Energy shift so U(rc) = 0 keeps total energy well-defined.
    let sr2_c = sigma2 / rc2;
    let sr6_c = sr2_c * sr2_c * sr2_c;
    let u_shift = 4.0 * params.epsilon * (sr6_c * sr6_c - sr6_c);

    for cz in 0..list.dims[2] {
        for cy in 0..list.dims[1] {
            for cx in 0..list.dims[0] {
                let home = CellList::index(list.dims, [cx, cy, cz]);
                let (nbs, len) = list.neighborhood([cx, cy, cz]);
                for &nb in &nbs[..len] {
                    // Visit each cell pair once (home <= nb); within the
                    // home cell, use i < j.
                    if nb < home {
                        continue;
                    }
                    for (ai, &i) in list.cells[home].iter().enumerate() {
                        let start = if nb == home { ai + 1 } else { 0 };
                        let i = i as usize;
                        let ri = sys.pos[i];
                        // j != i within one pass, so f[i] can live in a
                        // local and be stored once.
                        let mut fi = f[i];
                        for &j in &list.cells[nb][start..] {
                            let j = j as usize;
                            let rj = sys.pos[j];
                            let d = [
                                image(rj[0] - ri[0], l[0], h[0]),
                                image(rj[1] - ri[1], l[1], h[1]),
                                image(rj[2] - ri[2], l[2], h[2]),
                            ];
                            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                            if r2 >= rc2 || r2 == 0.0 {
                                continue;
                            }
                            pair_count += 1;
                            let sr2 = sigma2 / r2;
                            let sr6 = sr2 * sr2 * sr2;
                            let sr12 = sr6 * sr6;
                            potential += 4.0 * params.epsilon * (sr12 - sr6) - u_shift;
                            // F = -dU/dr; along d (i -> j), magnitude/r:
                            let fmag_over_r = 24.0 * params.epsilon * (2.0 * sr12 - sr6) / r2;
                            for k in 0..3 {
                                let fk = fmag_over_r * d[k];
                                fi[k] -= fk;
                                f[j][k] += fk;
                            }
                        }
                        f[i] = fi;
                    }
                }
            }
        }
    }
    Forces {
        f,
        potential,
        pair_count,
    }
}

/// Reference O(N²) force evaluation, used to validate the cell list.
pub fn compute_forces_naive(sys: &System, params: &WaterParams) -> Forces {
    let mut f = vec![[0.0f64; 3]; sys.n];
    let mut potential = 0.0;
    let mut pair_count = 0u64;
    let rc2 = params.cutoff * params.cutoff;
    let sigma2 = params.sigma * params.sigma;
    let sr2_c = sigma2 / rc2;
    let sr6_c = sr2_c * sr2_c * sr2_c;
    let u_shift = 4.0 * params.epsilon * (sr6_c * sr6_c - sr6_c);
    for i in 0..sys.n {
        for j in (i + 1)..sys.n {
            let d = sys.min_image(sys.pos[i], sys.pos[j]);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 >= rc2 || r2 == 0.0 {
                continue;
            }
            pair_count += 1;
            let sr2 = sigma2 / r2;
            let sr6 = sr2 * sr2 * sr2;
            let sr12 = sr6 * sr6;
            potential += 4.0 * params.epsilon * (sr12 - sr6) - u_shift;
            let fmag_over_r = 24.0 * params.epsilon * (2.0 * sr12 - sr6) / r2;
            for k in 0..3 {
                let fk = fmag_over_r * d[k];
                f[i][k] -= fk;
                f[j][k] += fk;
            }
        }
    }
    Forces {
        f,
        potential,
        pair_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::Simulation;
    use crate::system::System;

    fn small() -> (System, WaterParams) {
        let p = WaterParams::default();
        (System::water_box(300, &p, 7), p)
    }

    /// FNV-1a over 64-bit words: folds exact bit patterns into one value.
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    }

    /// Digest of every force component's bits, the potential's bits and
    /// the pair count.
    fn force_digest(forces: &Forces) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for f in &forces.f {
            for fk in f {
                h = fold(h, fk.to_bits());
            }
        }
        h = fold(h, forces.potential.to_bits());
        fold(h, forces.pair_count)
    }

    #[test]
    fn forces_are_bit_pinned() {
        // (atoms, cells per dimension, digest at step 0, digest after 5
        // steps). Produced by commit 2bac2ea, whose kernel computed every
        // displacement with `System::min_image`.
        let cases: [(usize, usize, u64, u64); 3] = [
            (100, 1, 0xdce4_6fcd_72d2_ac57, 0x2c0d_2a4b_3a05_3278),
            (300, 2, 0x6422_e955_0afa_5d0a, 0x5775_30bd_a105_9690),
            (3000, 4, 0x9c1d_ae82_ebf4_e3f2, 0xb341_0625_645b_ac7e),
        ];
        for (n, cells, at0, at5) in cases {
            let mut sim = Simulation::water(n, 21);
            assert_eq!(
                CellList::build(&sim.system, sim.params.cutoff).dims,
                [cells; 3]
            );
            let d0 = force_digest(&sim.forces);
            sim.run(5);
            let d5 = force_digest(&sim.forces);
            assert_eq!(
                (d0, d5),
                (at0, at5),
                "{n} atoms: digests {d0:#018x} / {d5:#018x}"
            );
        }
    }

    #[test]
    fn newtons_third_law() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        let mut sum = [0.0f64; 3];
        for f in &forces.f {
            for k in 0..3 {
                sum[k] += f[k];
            }
        }
        for s in sum {
            assert!(s.abs() < 1e-9, "net force {s} violates Newton's third law");
        }
    }

    #[test]
    fn cell_list_matches_naive() {
        let p = WaterParams::default();
        for (n, cells) in [(100, 1), (300, 2), (3000, 4)] {
            let mut sim = Simulation::water(n, 17);
            let fresh = sim.system.clone();
            sim.run(5);
            // Translating by half a lattice spacing wraps whole lattice
            // planes across every periodic face.
            let mut shifted = sim.system.clone();
            let shift = 0.5 * shifted.box_len[0] / (n as f64).cbrt().ceil();
            for r in &mut shifted.pos {
                for (k, rk) in r.iter_mut().enumerate() {
                    *rk = (*rk + shift).rem_euclid(shifted.box_len[k]);
                }
            }
            for sys in [&fresh, &sim.system, &shifted] {
                assert_eq!(CellList::build(sys, p.cutoff).dims, [cells; 3]);
                let fast = compute_forces(sys, &p);
                let slow = compute_forces_naive(sys, &p);
                assert_eq!(fast.pair_count, slow.pair_count, "pair counts differ");
                assert!((fast.potential - slow.potential).abs() < 1e-9);
                for (a, b) in fast.f.iter().zip(&slow.f) {
                    for k in 0..3 {
                        assert!((a[k] - b[k]).abs() < 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn image_select_matches_min_image_at_the_threshold() {
        let p = WaterParams::default();
        let boxes = [100, 300, 32_751, 40_000].map(|n| p.box_len(n));
        for l in boxes.into_iter().chain([10.0, 13.000000001]) {
            let sys = System {
                n: 0,
                box_len: [l; 3],
                pos: Vec::new(),
                vel: Vec::new(),
            };
            let h = image_threshold(l);
            assert_eq!((h / l).round(), 1.0, "L = {l}: h must wrap");
            assert_eq!((h.next_down() / l).round(), 0.0, "L = {l}: h is minimal");
            for mag in [0.0, h, h.next_down(), h.next_up(), 0.5 * l, l] {
                for dk in [mag, -mag] {
                    let want = sys.min_image([0.0; 3], [dk, 0.0, 0.0])[0];
                    let got = image(dk, l, h);
                    assert_eq!(got.to_bits(), want.to_bits(), "L = {l}, dk = {dk}");
                }
            }
        }
    }

    #[test]
    fn pair_count_scales_with_density() {
        let p = WaterParams::default();
        let sys = System::water_box(1000, &p, 8);
        let forces = compute_forces(&sys, &p);
        // Expected neighbors within cutoff: n * 4/3 pi rc^3 rho / 2.
        let expected =
            sys.n as f64 * 4.0 / 3.0 * std::f64::consts::PI * p.cutoff.powi(3) * p.density / 2.0;
        let ratio = forces.pair_count as f64 / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "pair count {} vs expected {expected:.0}",
            forces.pair_count
        );
    }

    #[test]
    fn forces_are_finite_and_bounded() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        for f in &forces.f {
            for fk in f {
                assert!(fk.is_finite());
                assert!(fk.abs() < 1e4, "unphysical force {fk}");
            }
        }
    }

    #[test]
    fn potential_is_negative_in_liquid() {
        let (sys, p) = small();
        let forces = compute_forces(&sys, &p);
        assert!(
            forces.potential < 0.0,
            "liquid LJ potential should be cohesive, got {}",
            forces.potential
        );
    }
}
