//! 3-D compressible Euler equations: Godunov finite-volume update with HLL
//! fluxes and dimensional splitting.
//!
//! This is the hyperbolic (fluid) solver behind both evaluation datasets:
//! `ShockPool3D` solves "a purely hyperbolic equation" (a tilted planar shock
//! sweeping the domain) and `AMR64` uses the fluid equations alongside
//! Poisson's equation and particle ODEs.
//!
//! The per-cell arithmetic — primitives, the HLL flux, the flux-difference
//! update, the floors — is written once over a lane type ([`Lanes`]). Its
//! `f64` instantiation is the scalar API ([`hll_flux`], [`store`],
//! [`mod@reference`]); its `Pack` instantiations are [`sweep`],
//! which carries several independent sweep lines at once through
//! `sweep_column`. Every lane performs the scalar's IEEE operations in
//! the scalar's order, so all instantiations produce the same bits.
//! [`euler_step`] is three such sweeps and one zero-gradient ghost fill:
//! the y sweep takes its line ends from the end rows themselves (`Ends`),
//! which is what a fill before it would have put in the ghosts.

use crate::checked_capacity;
use samr_mesh::field::Field3;
use samr_mesh::index::{ivec3, IVec3};
use std::ops::{Add, Div, Mul, Range, Sub};

/// Number of conserved fields: ρ, mx, my, mz, E.
pub const NFIELDS: usize = 5;

/// Field indices within a patch's field vector.
pub mod fields {
    pub const RHO: usize = 0;
    pub const MX: usize = 1;
    pub const MY: usize = 2;
    pub const MZ: usize = 3;
    pub const E: usize = 4;
}

/// Floors applied after every update to keep the scheme robust on strong
/// shocks (standard practice in production SAMR codes).
pub const RHO_FLOOR: f64 = 1e-10;
pub const P_FLOOR: f64 = 1e-12;

/// The arithmetic the kernel is written in, applied lane by lane: IEEE
/// `+ − × ÷`, `max`/`min` with [`f64::max`]'s NaN rule (the non-NaN operand
/// wins), `sqrt`, and the three compare-selects the scheme branches on.
/// Implemented by `f64` (one lane) and `Pack` (`W` lanes).
pub trait Lanes:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    fn splat(x: f64) -> Self;
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    /// `if self < t { a } else { b }` (a NaN lane takes `b`).
    fn if_lt(self, t: Self, a: Self, b: Self) -> Self;
    /// `if self >= t { a } else { b }` (a NaN lane takes `b`).
    fn if_ge(self, t: Self, a: Self, b: Self) -> Self;
    /// `if self <= t { a } else { b }` (a NaN lane takes `b`).
    fn if_le(self, t: Self, a: Self, b: Self) -> Self;
}

/// `W` independent lanes of `f64`. Every operation is a fixed-trip loop
/// over the lanes, which the compiler turns into packed instructions of
/// whatever width the enclosing function's target features allow.
#[derive(Clone, Copy)]
pub(crate) struct Pack<const W: usize>([f64; W]);

/// Each `name(s, args…) => body` is one [`Lanes`] method: `body` on the
/// operands themselves for `f64`, on every lane of them for [`Pack`].
macro_rules! lanes_impl {
    ($($name:ident($s:ident $(, $arg:ident)*) => $body:expr;)*) => {
        impl Lanes for f64 {
            #[inline(always)]
            fn splat(x: f64) -> Self {
                x
            }
            $(#[inline(always)]
            fn $name(self $(, $arg: Self)*) -> Self {
                let $s = self;
                $body
            })*
        }
        impl<const W: usize> Lanes for Pack<W> {
            #[inline(always)]
            fn splat(x: f64) -> Self {
                Pack([x; W])
            }
            $(#[inline(always)]
            fn $name(self $(, $arg: Self)*) -> Self {
                let mut r = self;
                for l in 0..W {
                    let ($s, $($arg,)*) = (self.0[l], $($arg.0[l],)*);
                    r.0[l] = $body;
                }
                r
            })*
        }
    };
}
lanes_impl! {
    max(s, o) => f64::max(s, o);
    min(s, o) => f64::min(s, o);
    sqrt(s) => f64::sqrt(s);
    if_lt(s, t, a, b) => if s < t { a } else { b };
    if_ge(s, t, a, b) => if s >= t { a } else { b };
    if_le(s, t, a, b) => if s <= t { a } else { b };
}

macro_rules! pack_op {
    ($($tr:ident $f:ident $op:tt;)*) => {$(
        impl<const W: usize> $tr for Pack<W> {
            type Output = Self;
            #[inline(always)]
            fn $f(mut self, o: Self) -> Self {
                for l in 0..W {
                    self.0[l] $op o.0[l];
                }
                self
            }
        }
    )*};
}
pack_op! { Add add +=; Sub sub -=; Mul mul *=; Div div /=; }

impl<const W: usize> Pack<W> {
    /// Lane `l` reads `data[at + l * stride]`. Only the lanes in `live` are
    /// cells this pack updates; the others are padding, loaded so that every
    /// lane computes on a real state and never stored. Padding below
    /// `live.start` is cells of the row that earlier packs have already
    /// updated (`live.end == W`: every lane is addressable); padding from
    /// `live.end` up would run off a row shorter than the pack, so it
    /// repeats the last live lane.
    #[inline(always)]
    fn load(data: &[f64], at: usize, stride: usize, live: &Range<usize>) -> Self {
        if stride == 1 && live.end == W {
            return Pack(data[at..at + W].try_into().expect("W lanes"));
        }
        let mut r = [0.0; W];
        for l in 0..W {
            r[l] = data[at + l.min(live.end - 1) * stride];
        }
        Pack(r)
    }

    /// Write the `live` lanes back.
    #[inline(always)]
    fn store(self, data: &mut [f64], at: usize, stride: usize, live: &Range<usize>) {
        if stride == 1 && *live == (0..W) {
            data[at..at + W].copy_from_slice(&self.0);
            return;
        }
        for l in live.clone() {
            data[at + l * stride] = self.0[l];
        }
    }
}

/// A conserved state vector at one cell (`L = f64`) or at one cell of each
/// of `W` sweep lines (`L = Pack<W>`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cons<L = f64> {
    pub rho: L,
    pub m: [L; 3],
    pub e: L,
}

impl<L: Copy> Cons<L> {
    #[inline(always)]
    pub(crate) fn to_array(self) -> [L; NFIELDS] {
        [self.rho, self.m[0], self.m[1], self.m[2], self.e]
    }

    #[inline(always)]
    pub(crate) fn from_array(v: [L; NFIELDS]) -> Self {
        Cons {
            rho: v[0],
            m: [v[1], v[2], v[3]],
            e: v[4],
        }
    }
}

impl Cons {
    /// Pressure via the ideal-gas EOS, floored.
    pub fn pressure(&self, gamma: f64) -> f64 {
        let ke = 0.5 * (self.m[0] * self.m[0] + self.m[1] * self.m[1] + self.m[2] * self.m[2])
            / self.rho.max(RHO_FLOOR);
        ((gamma - 1.0) * (self.e - ke)).max(P_FLOOR)
    }

    /// Sound speed.
    pub fn sound_speed(&self, gamma: f64) -> f64 {
        (gamma * self.pressure(gamma) / self.rho.max(RHO_FLOOR)).sqrt()
    }

    /// Velocity component along `axis`.
    pub fn vel(&self, axis: usize) -> f64 {
        self.m[axis] / self.rho.max(RHO_FLOOR)
    }

    /// Physical flux along `axis`.
    pub fn flux(&self, axis: usize, gamma: f64) -> [f64; NFIELDS] {
        let v = self.vel(axis);
        let p = self.pressure(gamma);
        let mut f = [
            self.rho * v,
            self.m[0] * v,
            self.m[1] * v,
            self.m[2] * v,
            (self.e + p) * v,
        ];
        f[1 + axis] += p;
        f
    }
}

/// Read the conserved state at cell `p` from a patch's field slice.
#[inline]
pub fn load(fieldset: &[Field3], p: IVec3) -> Cons {
    Cons {
        rho: fieldset[fields::RHO].get(p),
        m: [
            fieldset[fields::MX].get(p),
            fieldset[fields::MY].get(p),
            fieldset[fields::MZ].get(p),
        ],
        e: fieldset[fields::E].get(p),
    }
}

/// Clamp a conserved state to the density and pressure floors — the exact
/// per-cell post-update fix every sweep applies.
#[inline(always)]
pub fn apply_floors<L: Lanes>(mut u: Cons<L>, gamma: f64) -> Cons<L> {
    let rho_floor = L::splat(RHO_FLOOR);
    u.rho = u.rho.if_lt(rho_floor, rho_floor, u.rho);
    // enforce pressure floor by re-deriving energy when necessary
    let ke = L::splat(0.5) * (u.m[0] * u.m[0] + u.m[1] * u.m[1] + u.m[2] * u.m[2]) / u.rho;
    let p_now = L::splat(gamma - 1.0) * (u.e - ke);
    let e_floor = ke + L::splat(P_FLOOR / (gamma - 1.0));
    u.e = p_now.if_lt(L::splat(P_FLOOR), e_floor, u.e);
    u
}

/// Write a conserved state to cell `p`, applying floors.
#[inline]
pub fn store(fieldset: &mut [Field3], p: IVec3, u: Cons, gamma: f64) {
    let u = apply_floors(u, gamma);
    fieldset[fields::RHO].set(p, u.rho);
    fieldset[fields::MX].set(p, u.m[0]);
    fieldset[fields::MY].set(p, u.m[1]);
    fieldset[fields::MZ].set(p, u.m[2]);
    fieldset[fields::E].set(p, u.e);
}

/// The per-cell quantities an HLL interface needs from each side, computed
/// once per cell by the column kernel and reused by both of the cell's
/// interfaces. `v`, `a` and `f` are exactly [`Cons::vel`],
/// [`Cons::sound_speed`] and [`Cons::flux`] of `u` — pure functions of the
/// state — so an HLL flux assembled from two `AxisPrim`s is bit-identical
/// to one computed from the raw states.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisPrim<L = f64> {
    pub u: Cons<L>,
    pub v: L,
    pub a: L,
    pub f: [L; NFIELDS],
}

impl<L: Lanes> AxisPrim<L> {
    /// Shared-subexpression form of calling [`Cons::vel`],
    /// [`Cons::sound_speed`] and [`Cons::flux`] separately: the floored
    /// density, kinetic energy, pressure and velocity are each the same
    /// expression on the same inputs as in those methods, computed once and
    /// reused — so the bits match the three separate calls while performing
    /// three divisions instead of six.
    #[inline(always)]
    pub(crate) fn new(u: Cons<L>, axis: usize, gamma: f64) -> Self {
        let rho = u.rho.max(L::splat(RHO_FLOOR));
        let ke = L::splat(0.5) * (u.m[0] * u.m[0] + u.m[1] * u.m[1] + u.m[2] * u.m[2]) / rho;
        let p = (L::splat(gamma - 1.0) * (u.e - ke)).max(L::splat(P_FLOOR));
        let v = u.m[axis] / rho;
        let a = (L::splat(gamma) * p / rho).sqrt();
        let mut f = [u.rho * v, u.m[0] * v, u.m[1] * v, u.m[2] * v, (u.e + p) * v];
        f[1 + axis] = f[1 + axis] + p;
        AxisPrim { u, v, a, f }
    }
}

/// HLL flux from precomputed per-side primitives — the single
/// implementation behind [`hll_flux`] and the column kernel.
///
/// Branch-free: the mid-state flux is computed unconditionally, then each
/// component is *selected*. The selected values are exactly those of the
/// early-return form: when `sl >= 0` the left flux is chosen regardless of
/// what the mid expression evaluated to (it may be inf/NaN when
/// `sr == sl`; IEEE arithmetic on it has no side effects and the value is
/// discarded), and symmetrically for `sr <= 0`. Both compares read `+0`
/// and `−0` alike, so which zero a packed `min`/`max` returns for
/// `min(+0, −0)` never reaches a flux.
#[inline(always)]
pub(crate) fn hll_from_prims<L: Lanes>(l: &AxisPrim<L>, r: &AxisPrim<L>) -> [L; NFIELDS] {
    let sl = (l.v - l.a).min(r.v - r.a);
    let sr = (l.v + l.a).max(r.v + r.a);
    let (ul, ur) = (l.u.to_array(), r.u.to_array());
    let zero = L::splat(0.0);
    let mut f = [zero; NFIELDS];
    let inv = L::splat(1.0) / (sr - sl);
    let slsr = sl * sr;
    for k in 0..NFIELDS {
        let mid = (sr * l.f[k] - sl * r.f[k] + slsr * (ur[k] - ul[k])) * inv;
        f[k] = sl.if_ge(zero, l.f[k], sr.if_le(zero, r.f[k], mid));
    }
    f
}

/// HLL numerical flux along `axis` between left and right states.
pub fn hll_flux(l: &Cons, r: &Cons, axis: usize, gamma: f64) -> [f64; NFIELDS] {
    hll_from_prims(
        &AxisPrim::new(*l, axis, gamma),
        &AxisPrim::new(*r, axis, gamma),
    )
}

/// Axis unit vector for a dimensionally-split sweep.
#[inline]
pub(crate) fn axis_dir(axis: usize) -> IVec3 {
    match axis {
        0 => ivec3(1, 0, 0),
        1 => ivec3(0, 1, 0),
        _ => ivec3(0, 0, 1),
    }
}

/// The Godunov flux-difference update at one cell, before floors.
#[inline(always)]
pub(crate) fn flux_difference_update<L: Lanes>(
    u0: &Cons<L>,
    f_lo: &[L; NFIELDS],
    f_hi: &[L; NFIELDS],
    dt_over_dx: f64,
) -> Cons<L> {
    let mut v = u0.to_array();
    for k in 0..NFIELDS {
        v[k] = v[k] - L::splat(dt_over_dx) * (f_hi[k] - f_lo[k]);
    }
    Cons::from_array(v)
}

/// Assert the shape invariant the line kernels index by: every conserved
/// field shares `fieldset[0]`'s interior and ghost width, with at least one
/// ghost layer for the stencil.
fn assert_sweep_shapes(fieldset: &[Field3]) {
    assert!(fieldset.len() >= NFIELDS);
    assert!(fieldset[0].ghost() >= 1, "sweep needs ghost width >= 1");
    for f in &fieldset[..NFIELDS] {
        assert!(
            f.interior() == fieldset[0].interior() && f.ghost() == fieldset[0].ghost(),
            "conserved fields must share one shape"
        );
    }
}

/// Where a sweep line finds the states beyond its two ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Ends {
    /// In the ghost rows, as stored.
    Ghosts,
    /// In the end rows themselves. A zero-gradient ghost fill stores
    /// bit-copies of the end rows there, so this gives the bits
    /// [`Field3::fill_ghosts_zero_gradient`] followed by `Ghosts` gives,
    /// and neither reads nor writes a ghost cell.
    ZeroGradient,
}

/// What stays fixed while one patch is swept along one axis.
#[derive(Clone, Copy)]
struct Walk {
    /// Index distance between the lanes of a pack.
    lane_stride: usize,
    /// Index distance between the rows a column walks.
    walk_stride: usize,
    /// Interior cells on each sweep line.
    rows: usize,
    ends: Ends,
    dt_over_dx: f64,
    gamma: f64,
}

/// Primitives of the pack of cells at `at` (see [`Pack::load`]).
#[inline(always)]
fn load_prim<const AXIS: usize, const W: usize>(
    data: &[&mut [f64]; NFIELDS],
    at: usize,
    live: &Range<usize>,
    w: &Walk,
) -> AxisPrim<Pack<W>> {
    let mut u = [Pack::splat(0.0); NFIELDS];
    for k in 0..NFIELDS {
        u[k] = Pack::load(data[k], at, w.lane_stride, live);
    }
    AxisPrim::new(Cons::from_array(u), AXIS, w.gamma)
}

/// Sweep `W` adjacent lines in place, one lane each, storing the `live`
/// lanes. `start` indexes lane 0 of the ghost row below the first interior
/// one. Each step loads the next row, forms its primitives and the
/// interface flux they share with the current row (`f_hi` of row `i` *is*
/// `f_lo` of row `i + 1`), and stores the current row's update — so a row
/// is read before the store that overwrites it, its lower neighbour's old
/// state lives on in `f_lo`, and nothing but the five conserved fields
/// touches memory. Under [`Ends::ZeroGradient`] the row below the first is
/// the first and the row above the last is the last.
#[inline(always)]
fn sweep_column<const AXIS: usize, const W: usize>(
    data: &mut [&mut [f64]; NFIELDS],
    start: usize,
    live: Range<usize>,
    w: Walk,
) {
    let mut at = start + w.walk_stride;
    let mut p0 = load_prim::<AXIS, W>(data, at, &live, &w);
    let below = match w.ends {
        Ends::Ghosts => load_prim::<AXIS, W>(data, start, &live, &w),
        Ends::ZeroGradient => p0,
    };
    let mut f_lo = hll_from_prims(&below, &p0);
    for row in 1..=w.rows {
        let pp = if row == w.rows && w.ends == Ends::ZeroGradient {
            p0
        } else {
            load_prim::<AXIS, W>(data, at + w.walk_stride, &live, &w)
        };
        let f_hi = hll_from_prims(&p0, &pp);
        let u = flux_difference_update(&p0.u, &f_lo, &f_hi, w.dt_over_dx);
        for (field, v) in data.iter_mut().zip(apply_floors(u, w.gamma).to_array()) {
            v.store(field, at, w.lane_stride, &live);
        }
        (p0, f_lo) = (pp, f_hi);
        at += w.walk_stride;
    }
}

/// Sweep lanes `lanes` of a bundle of `nl` lines whose lane 0 starts at
/// `first`, in packs of `W`. A last pack that would overhang the bundle is
/// moved back to end on its last lane — the lanes it shares with the pack
/// before are padding (see [`Pack::load`]) — unless the whole bundle is
/// narrower than one pack.
#[inline(always)]
fn sweep_bundle<const AXIS: usize, const W: usize>(
    data: &mut [&mut [f64]; NFIELDS],
    first: usize,
    lanes: Range<usize>,
    nl: usize,
    w: Walk,
) {
    for l0 in lanes.step_by(W) {
        let live = (nl - l0).min(W);
        let pad = if nl >= W { W - live } else { 0 };
        let start = first + (l0 - pad) * w.lane_stride;
        sweep_column::<AXIS, W>(data, start, pad..pad + live, w);
    }
}

/// [`sweep`] at a fixed lane count.
#[inline(always)]
pub(crate) fn sweep_lanes<const W: usize>(
    fieldset: &mut [Field3],
    axis: usize,
    ends: Ends,
    dt_over_dx: f64,
    gamma: f64,
) {
    assert_sweep_shapes(fieldset);
    match axis {
        0 => sweep_axis::<0, W>(fieldset, ends, dt_over_dx, gamma),
        1 => sweep_axis::<1, W>(fieldset, ends, dt_over_dx, gamma),
        _ => sweep_axis::<2, W>(fieldset, ends, dt_over_dx, gamma),
    }
}

/// The x and y sweeps take their lanes along z (contiguous packs) and the
/// z sweep along y, so all three are [`sweep_column`] with different
/// strides. Above four lanes, what is left of a bundle after its full
/// packs goes in packs of four.
#[inline(always)]
fn sweep_axis<const AXIS: usize, const W: usize>(
    fieldset: &mut [Field3],
    ends: Ends,
    dt_over_dx: f64,
    gamma: f64,
) {
    let (interior, storage) = (fieldset[0].interior(), fieldset[0].storage_region());
    let [rho, mx, my, mz, e, ..] = fieldset else {
        unreachable!("assert_sweep_shapes checked the field count")
    };
    let data = &mut [rho, mx, my, mz, e].map(Field3::data_mut);
    let (n, s) = (interior.size(), storage.size());
    let stride = [(s.y * s.z) as usize, s.z as usize, 1];
    let (lane, outer) = match AXIS {
        0 => (2, 1),
        1 => (2, 0),
        _ => (1, 0),
    };
    let w = Walk {
        lane_stride: stride[lane],
        walk_stride: stride[AXIS],
        rows: n[AXIS] as usize,
        ends,
        dt_over_dx,
        gamma,
    };
    let nl = n[lane] as usize;
    let origin = storage.linear_index(interior.lo) - stride[AXIS];
    for j in 0..n[outer] as usize {
        let first = origin + j * stride[outer];
        if W > 4 {
            let full = nl - nl % W;
            sweep_bundle::<AXIS, W>(data, first, 0..full, nl, w);
            sweep_bundle::<AXIS, 4>(data, first, full..nl, nl, w);
        } else {
            sweep_bundle::<AXIS, W>(data, first, 0..nl, nl, w);
        }
    }
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Which instantiation [`sweep`] runs on this host — a host-time number
/// should name it.
pub fn lanes_in_use() -> &'static str {
    if avx2() {
        "avx2 x8"
    } else {
        "baseline x4"
    }
}

/// [`sweep_lanes`] compiled with 256-bit registers. Not `fma`: a fused
/// multiply-add rounds once where the reference rounds twice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(fieldset: &mut [Field3], axis: usize, ends: Ends, dt_over_dx: f64, gamma: f64) {
    sweep_lanes::<8>(fieldset, axis, ends, dt_over_dx, gamma)
}

/// One dimensionally-split first-order Godunov sweep along `axis` over the
/// interior of the patch. Ghost zones must have been filled beforehand.
///
/// Runs **in place** and allocates nothing: `sweep_column` carries `W`
/// sweep lines at a time through primitives → HLL → update in registers,
/// computing each cell's primitives once and each interface flux once. It
/// is instantiated at `W = 4` for every host and at `W = 8` with `avx2`
/// enabled for hosts that report it — two compilations of one source, and
/// since each lane performs the scalar's operations in the scalar's order
/// both give [`reference::sweep`]'s bits (golden tests and the kernel
/// proptests pin it).
pub fn sweep(fieldset: &mut [Field3], axis: usize, dt_over_dx: f64, gamma: f64) {
    sweep_ends(fieldset, axis, Ends::Ghosts, dt_over_dx, gamma)
}

/// [`sweep`] with the line ends of `ends`, on the widest lanes the host has.
fn sweep_ends(fieldset: &mut [Field3], axis: usize, ends: Ends, dt_over_dx: f64, gamma: f64) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `sweep_avx2` needs the `avx2` feature, checked on the line above.
        #[allow(unsafe_code)]
        unsafe {
            sweep_avx2(fieldset, axis, ends, dt_over_dx, gamma)
        };
        return;
    }
    sweep_lanes::<4>(fieldset, axis, ends, dt_over_dx, gamma)
}

/// Full XYZ dimensionally-split step: every sweep after the first sees
/// zero-gradient ghosts of the state the sweep before it left, so the
/// stencil never reads values stale from an earlier sweep (which would
/// break conservation).
///
/// The x sweep reads the ghosts the caller exchanged. The y sweep takes its
/// line ends from the end rows ([`Ends::ZeroGradient`]) — the only ghost
/// cells it would read, and bit-copies of those rows after a refill. One
/// refill then precedes the z sweep, and it is the ghost state the step
/// leaves behind: zero-gradient of the post-y state, [`reference::euler_step`]'s
/// to the bit (refinement criteria difference across ghost faces after the
/// solve). Fully in place — the step performs zero heap allocations.
pub fn euler_step(fieldset: &mut [Field3], dt_over_dx: f64, gamma: f64) {
    sweep(fieldset, 0, dt_over_dx, gamma);
    sweep_ends(fieldset, 1, Ends::ZeroGradient, dt_over_dx, gamma);
    for f in fieldset.iter_mut().take(NFIELDS) {
        f.fill_ghosts_zero_gradient();
    }
    sweep(fieldset, 2, dt_over_dx, gamma);
}

/// Maximum signal speed (|v|+a over all axes) over the interior — the CFL
/// quantity.
pub fn max_wave_speed(fieldset: &[Field3], gamma: f64) -> f64 {
    let interior = fieldset[0].interior();
    let mut s: f64 = 0.0;
    for p in interior.iter_cells() {
        let u = load(fieldset, p);
        let a = u.sound_speed(gamma);
        for axis in 0..3 {
            s = s.max(u.vel(axis).abs() + a);
        }
    }
    s
}

/// Total conserved quantities over the interior: (mass, momentum, energy).
pub fn totals(fieldset: &[Field3]) -> (f64, [f64; 3], f64) {
    let interior = fieldset[0].interior();
    let mut mass = 0.0;
    let mut mom = [0.0; 3];
    let mut e = 0.0;
    for p in interior.iter_cells() {
        let u = load(fieldset, p);
        mass += u.rho;
        for k in 0..3 {
            mom[k] += u.m[k];
        }
        e += u.e;
    }
    (mass, mom, e)
}

/// The update-list forms of the sweep the in-place double-buffered versions
/// replaced, retained purely as bit-identity oracles for the golden tests.
/// Production code must call [`sweep`] / [`euler_step`].
pub mod reference {
    use super::*;

    /// Reference for [`super::sweep`]: accumulate `(cell, state)` tuples,
    /// then apply them through [`store`]. Per-cell and per-flux naive — it
    /// evaluates [`hll_flux`] twice per cell with no interface reuse — but
    /// it shares [`flux_difference_update`] with the line kernel, so the
    /// golden tests pin exactly the reuse and indexing transformations.
    pub fn sweep(fieldset: &mut [Field3], axis: usize, dt_over_dx: f64, gamma: f64) {
        assert!(fieldset.len() >= NFIELDS);
        let interior = fieldset[0].interior();
        let dir = axis_dir(axis);
        // Collect updates first, then apply (the stencil reads neighbours).
        let mut updates: Vec<(IVec3, Cons)> = Vec::with_capacity(checked_capacity(interior.cells()));
        for p in interior.iter_cells() {
            let um = load(fieldset, p - dir);
            let u0 = load(fieldset, p);
            let up = load(fieldset, p + dir);
            let f_lo = hll_flux(&um, &u0, axis, gamma);
            let f_hi = hll_flux(&u0, &up, axis, gamma);
            updates.push((p, flux_difference_update(&u0, &f_lo, &f_hi, dt_over_dx)));
        }
        for (p, u) in updates {
            store(fieldset, p, u, gamma);
        }
    }

    /// Reference for [`super::euler_step`].
    pub fn euler_step(fieldset: &mut [Field3], dt_over_dx: f64, gamma: f64) {
        for axis in 0..3 {
            if axis > 0 {
                for f in fieldset.iter_mut().take(NFIELDS) {
                    f.fill_ghosts_zero_gradient();
                }
            }
            sweep(fieldset, axis, dt_over_dx, gamma);
        }
    }
}

/// Set a uniform ambient state over the full storage (ghosts included).
pub fn set_ambient(fieldset: &mut [Field3], rho: f64, v: [f64; 3], p: f64, gamma: f64) {
    let e = p / (gamma - 1.0) + 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    fieldset[fields::RHO].fill(rho);
    fieldset[fields::MX].fill(rho * v[0]);
    fieldset[fields::MY].fill(rho * v[1]);
    fieldset[fields::MZ].fill(rho * v[2]);
    fieldset[fields::E].fill(e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use samr_mesh::region::Region;

    fn zeros(r: Region, ghost: i64) -> Vec<Field3> {
        (0..NFIELDS).map(|_| Field3::zeros(r, ghost)).collect()
    }

    fn uniform_set(n: i64, ghost: i64) -> Vec<Field3> {
        zeros(Region::cube(n), ghost)
    }

    /// Deterministic pseudo-random, physically plausible state (LCG fill)
    /// for golden comparisons without a rand dependency.
    fn scrambled(r: Region, ghost: i64, seed: u64) -> Vec<Field3> {
        let mut fs = zeros(r, ghost);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15);
        for (k, f) in fs.iter_mut().enumerate() {
            for v in f.data_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (s >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                *v = match k {
                    fields::RHO => 0.5 + u,
                    fields::E => 1.5 + u,
                    _ => u - 0.5,
                };
            }
        }
        fs
    }

    fn bits(fs: &[Field3]) -> Vec<Vec<u64>> {
        fs.iter()
            .map(|f| f.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    const GAMMA: f64 = 1.4;

    type Sweep = fn(&mut [Field3], usize, Ends, f64, f64);

    /// Every instantiation of the column kernel, and the dispatched entry
    /// (on an AVX2 host, the one compiled with 256-bit registers).
    const KERNELS: [(&str, Sweep); 5] = [
        ("x1", sweep_lanes::<1>),
        ("x2", sweep_lanes::<2>),
        ("x4", sweep_lanes::<4>),
        ("x8", sweep_lanes::<8>),
        ("dispatched", sweep_ends),
    ];

    /// Sweep `fs` along `axis` with the reference and with every kernel:
    /// all must agree bit for bit over the full storage — ghosts included,
    /// a lane must never store outside the interior. With zero-gradient
    /// ends every kernel must give the interior the reference gives after a
    /// ghost refill, and leave the ghosts it was handed. Returns the
    /// `Ghosts` result.
    fn swept_by_all(fs: &[Field3], axis: usize, dt_over_dx: f64, what: &str) -> Vec<Field3> {
        let mut want = fs.to_vec();
        reference::sweep(&mut want, axis, dt_over_dx, GAMMA);
        let mut refilled = fs.to_vec();
        refilled.iter_mut().for_each(Field3::fill_ghosts_zero_gradient);
        reference::sweep(&mut refilled, axis, dt_over_dx, GAMMA);
        let mut want_zg = fs.to_vec();
        for (w, r) in want_zg.iter_mut().zip(&refilled) {
            w.copy_from(r, &r.interior());
        }
        for (name, kernel) in KERNELS {
            for (ends, want) in [(Ends::Ghosts, &want), (Ends::ZeroGradient, &want_zg)] {
                let mut got = fs.to_vec();
                kernel(&mut got, axis, ends, dt_over_dx, GAMMA);
                assert_eq!(bits(&got), bits(want), "{what}: {name}, axis {axis}, {ends:?}");
            }
        }
        want
    }

    #[test]
    fn in_place_sweep_matches_reference_bitwise() {
        for seed in [1u64, 2, 3] {
            let mut a = scrambled(Region::cube(9), 1, seed);
            let mut b = a.clone();
            for axis in 0..3 {
                sweep(&mut a, axis, 0.21, 1.4);
                reference::sweep(&mut b, axis, 0.21, 1.4);
                assert_eq!(bits(&a), bits(&b), "seed {seed} axis {axis}");
            }
            euler_step(&mut a, 0.17, 1.4);
            reference::euler_step(&mut b, 0.17, 1.4);
            assert_eq!(bits(&a), bits(&b), "seed {seed} full step");
        }
    }

    /// Lanes run along z for the x and y sweeps and along y for the z
    /// sweep: extents `(1 + m % 3, m, 18 - m)` put every count 1..=17 — up
    /// to two 8-lane packs and a one-lane tail, so 1, 2, 3, `W − 1`, `W`,
    /// `W + 1` and `2W + 1` for every `W` — on both lane axes and 1, 2 and 3
    /// cells on every walked axis, off-origin, non-cubic.
    fn thin_shapes() -> impl Iterator<Item = (Region, i64)> {
        (1..=17).map(|m| {
            let r = Region::at(ivec3(-2, 3, 5), ivec3(1 + m % 3, m, 18 - m));
            (r, 1 + m % 2)
        })
    }

    #[test]
    fn every_kernel_matches_reference_on_every_tail() {
        for (r, ghost) in thin_shapes() {
            let fs = scrambled(r, ghost, r.cells() as u64);
            for axis in 0..3 {
                swept_by_all(&fs, axis, 0.21, &format!("{r:?}"));
            }
        }
    }

    #[test]
    fn euler_step_leaves_the_reference_interior_and_ghosts() {
        // scrambled ghosts are no zero-gradient fill of anything: the x sweep
        // must read them, the y sweep must not miss them, and the ghost bits
        // afterwards are the surviving refill's
        for (r, ghost) in thin_shapes() {
            let mut a = scrambled(r, ghost, 3 * r.cells() as u64);
            let mut b = a.clone();
            euler_step(&mut a, 0.17, GAMMA);
            reference::euler_step(&mut b, 0.17, GAMMA);
            assert_eq!(bits(&a), bits(&b), "{r:?} ghost {ghost}");
        }
    }

    /// Set cell `p` from primitives, bypassing [`store`]'s floors.
    fn set_prim(fs: &mut [Field3], p: IVec3, rho: f64, v: [f64; 3], pr: f64) {
        let e = pr / (GAMMA - 1.0) + 0.5 * rho * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        for (k, val) in [rho, rho * v[0], rho * v[1], rho * v[2], e]
            .into_iter()
            .enumerate()
        {
            fs[k].set(p, val);
        }
    }

    /// Quiescent gas holding a block moving at Mach 5 towards +x+y+z in the
    /// low corner (the first pack of every bundle), one towards −x−y−z in
    /// the high corner (the last, partial one), and a cell whose energy is
    /// below its kinetic energy.
    fn hand_built() -> Vec<Field3> {
        let r = Region::at(ivec3(1, -4, 2), ivec3(6, 9, 11));
        let mut fs = zeros(r, 1);
        set_ambient(&mut fs, 1.0, [0.0; 3], 1.0, GAMMA);
        for p in Region::at(r.lo, IVec3::splat(2)).iter_cells() {
            set_prim(&mut fs, p, 1.0, [6.0; 3], 1.0);
        }
        for p in Region::at(r.hi - IVec3::splat(2), IVec3::splat(2)).iter_cells() {
            set_prim(&mut fs, p, 1.0, [-6.0; 3], 1.0);
        }
        set_prim(&mut fs, ivec3(5, 3, 4), 1.0, [1.5; 3], -100.0);
        fs
    }

    #[test]
    fn every_kernel_matches_reference_on_every_select_arm_and_floor() {
        let fs = hand_built();
        let dt_over_dx = 0.3; // past the moving blocks' CFL limit: drains their upwind cells
        for axis in 0..3 {
            // census with the scalar API: the state must reach what it was built to reach
            let dir = axis_dir(axis);
            let (mut left, mut right, mut mid, mut rho_floored, mut p_floored) = (0, 0, 0, 0, 0);
            for p in fs[0].interior().iter_cells() {
                let (um, u0, up) = (load(&fs, p - dir), load(&fs, p), load(&fs, p + dir));
                let sl = (um.vel(axis) - um.sound_speed(GAMMA))
                    .min(u0.vel(axis) - u0.sound_speed(GAMMA));
                let sr = (um.vel(axis) + um.sound_speed(GAMMA))
                    .max(u0.vel(axis) + u0.sound_speed(GAMMA));
                match (sl >= 0.0, sr <= 0.0) {
                    (true, _) => left += 1,
                    (_, true) => right += 1,
                    _ => mid += 1,
                }
                let (f_lo, f_hi) = (
                    hll_flux(&um, &u0, axis, GAMMA),
                    hll_flux(&u0, &up, axis, GAMMA),
                );
                let raw = flux_difference_update(&u0, &f_lo, &f_hi, dt_over_dx);
                let ke = 0.5 * raw.m.iter().map(|m| m * m).sum::<f64>() / raw.rho;
                if raw.rho < RHO_FLOOR {
                    rho_floored += 1;
                } else if (GAMMA - 1.0) * (raw.e - ke) < P_FLOOR {
                    p_floored += 1;
                }
            }
            assert!(
                left > 0 && right > 0 && mid > 0 && rho_floored > 0 && p_floored > 0,
                "axis {axis}: {left} left / {right} right / {mid} mid fluxes, \
                 {rho_floored} density / {p_floored} pressure floors"
            );
            let out = swept_by_all(&fs, axis, dt_over_dx, "hand-built");
            let floored = fs[0]
                .interior()
                .iter_cells()
                .filter(|&p| out[fields::RHO].get(p) == RHO_FLOOR);
            assert_eq!(floored.count(), rho_floored, "axis {axis}");
        }
    }

    #[test]
    fn nan_cell_reaches_its_neighbours_and_no_further() {
        let clean = scrambled(Region::at(ivec3(0, 0, 0), ivec3(5, 9, 10)), 1, 7);
        let at = ivec3(2, 6, 3);
        let mut dirty = clean.clone();
        for f in dirty.iter_mut() {
            f.set(at, f64::NAN);
        }
        for axis in 0..3 {
            let want = swept_by_all(&clean, axis, 0.21, "clean");
            let got = swept_by_all(&dirty, axis, 0.21, "NaN cell");
            for p in clean[0].storage_region().iter_cells() {
                let d = p - at;
                let near = d[axis].abs() <= 1 && (0..3).all(|a| a == axis || d[a] == 0);
                for k in 0..NFIELDS {
                    let (g, w) = (got[k].get(p), want[k].get(p));
                    assert!(
                        if near {
                            g.is_nan()
                        } else {
                            g.to_bits() == w.to_bits()
                        },
                        "axis {axis} field {k} at {p:?}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn hll_selects_each_arm() {
        let state = |v: f64, rho: f64, p: f64| {
            let m = [rho * v, rho * 0.3, rho * -0.2];
            let ke = 0.5 * (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]) / rho;
            Cons {
                rho,
                m,
                e: p / (GAMMA - 1.0) + ke,
            }
        };
        let same =
            |a: [f64; NFIELDS], b: [f64; NFIELDS]| a.map(f64::to_bits) == b.map(f64::to_bits);
        // both states outrun their sound speed rightwards: the left flux, exactly
        let (l, r) = (state(6.0, 1.0, 1.0), state(5.0, 0.8, 1.2));
        assert!(same(hll_flux(&l, &r, 0, GAMMA), l.flux(0, GAMMA)));
        // leftwards: the right flux
        let (l, r) = (state(-5.0, 0.8, 1.2), state(-6.0, 1.0, 1.0));
        assert!(same(hll_flux(&l, &r, 0, GAMMA), r.flux(0, GAMMA)));
        // Sod's tube: the textbook mid-state flux, neither side's own
        let (l, r) = (state(0.0, 1.0, 1.0), state(0.0, 0.125, 0.1));
        let (sl, sr) = (-l.sound_speed(GAMMA), l.sound_speed(GAMMA));
        assert!(sl < (-r.sound_speed(GAMMA)) && sr > r.sound_speed(GAMMA));
        let (fl, fr, ul, ur) = (
            l.flux(0, GAMMA),
            r.flux(0, GAMMA),
            l.to_array(),
            r.to_array(),
        );
        let mid: [f64; NFIELDS] = std::array::from_fn(|k| {
            (sr * fl[k] - sl * fr[k] + sl * sr * (ur[k] - ul[k])) * (1.0 / (sr - sl))
        });
        let f = hll_flux(&l, &r, 0, GAMMA);
        assert!(same(f, mid) && !same(f, fl) && !same(f, fr));
    }

    #[test]
    fn uniform_state_is_steady() {
        let mut fs = uniform_set(6, 1);
        set_ambient(&mut fs, 1.0, [0.0; 3], 1.0, 1.4);
        let before = totals(&fs);
        euler_step(&mut fs, 0.1, 1.4);
        let after = totals(&fs);
        assert!((before.0 - after.0).abs() < 1e-12);
        assert!((before.2 - after.2).abs() < 1e-12);
        // pointwise steady
        for p in Region::cube(6).iter_cells() {
            assert!((fs[fields::RHO].get(p) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pressure_and_sound_speed() {
        let u = Cons {
            rho: 1.0,
            m: [0.0; 3],
            e: 2.5,
        };
        assert!((u.pressure(1.4) - 1.0).abs() < 1e-12);
        assert!((u.sound_speed(1.4) - 1.4f64.sqrt()).abs() < 1e-12);
        // moving frame: subtract kinetic energy
        let u = Cons {
            rho: 2.0,
            m: [2.0, 0.0, 0.0],
            e: 3.5,
        };
        // ke = 0.5*4/2 = 1 ⇒ p = 0.4*(3.5-1) = 1
        assert!((u.pressure(1.4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hll_consistent_with_physical_flux() {
        // identical supersonic left/right states: HLL must equal the exact flux
        let u = Cons {
            rho: 1.0,
            m: [3.0, 0.0, 0.0],
            e: 5.0,
        };
        let f = hll_flux(&u, &u, 0, 1.4);
        let exact = u.flux(0, 1.4);
        for k in 0..NFIELDS {
            assert!((f[k] - exact[k]).abs() < 1e-12, "component {k}");
        }
    }

    #[test]
    fn mass_conserved_in_interior_shock_tube() {
        // Sod-like jump in the middle of a periodic-free box; before the wave
        // reaches the boundary total interior mass is conserved.
        let n = 16;
        let mut fs = uniform_set(n, 1);
        let gamma = 1.4;
        for p in fs[0].storage_region().iter_cells() {
            let (rho, pr) = if p.x < n / 2 { (1.0, 1.0) } else { (0.125, 0.1) };
            let u = Cons {
                rho,
                m: [0.0; 3],
                e: pr / (gamma - 1.0),
            };
            fs[fields::RHO].set(p, u.rho);
            fs[fields::MX].set(p, 0.0);
            fs[fields::MY].set(p, 0.0);
            fs[fields::MZ].set(p, 0.0);
            fs[fields::E].set(p, u.e);
        }
        let (m0, _, e0) = totals(&fs);
        // a few small steps; dt chosen well under CFL
        let s = max_wave_speed(&fs, gamma);
        let dt_over_dx = 0.4 / s;
        for _ in 0..3 {
            // refill ghosts from interior edge (zero-gradient)
            for f in fs.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            euler_step(&mut fs, dt_over_dx, gamma);
        }
        let (m1, mom1, e1) = totals(&fs);
        assert!((m0 - m1).abs() / m0 < 1e-10, "mass {m0} -> {m1}");
        assert!((e0 - e1).abs() / e0 < 1e-10, "energy {e0} -> {e1}");
        // shock generates +x momentum
        assert!(mom1[0] > 1e-3);
    }

    #[test]
    fn shock_moves_in_expected_direction() {
        let n = 16;
        let gamma = 1.4;
        let mut fs = uniform_set(n, 1);
        for p in fs[0].storage_region().iter_cells() {
            let (rho, pr) = if p.x < 4 { (4.0, 4.0) } else { (1.0, 1.0) };
            fs[fields::RHO].set(p, rho);
            fs[fields::E].set(p, pr / (gamma - 1.0));
        }
        let s = max_wave_speed(&fs, gamma);
        let mut steps = 0;
        let dt_over_dx = 0.4 / s;
        for _ in 0..6 {
            for f in fs.iter_mut() {
                f.fill_ghosts_zero_gradient();
            }
            euler_step(&mut fs, dt_over_dx, gamma);
            steps += 1;
        }
        assert!(steps == 6);
        // density at x=6 must have risen above ambient as the shock passed
        let probe = ivec3(6, n / 2, n / 2);
        assert!(
            fs[fields::RHO].get(probe) > 1.05,
            "rho at probe {}",
            fs[fields::RHO].get(probe)
        );
    }

    #[test]
    fn cfl_speed_positive_and_scales_with_pressure() {
        let mut quiet = uniform_set(4, 1);
        set_ambient(&mut quiet, 1.0, [0.0; 3], 1.0, 1.4);
        let mut hot = uniform_set(4, 1);
        set_ambient(&mut hot, 1.0, [0.0; 3], 100.0, 1.4);
        let sq = max_wave_speed(&quiet, 1.4);
        let sh = max_wave_speed(&hot, 1.4);
        assert!(sq > 0.0);
        assert!((sh / sq - 10.0).abs() < 1e-9);
    }

    #[test]
    fn floors_prevent_negative_states() {
        let mut fs = uniform_set(4, 1);
        let bad = Cons {
            rho: -1.0,
            m: [0.0; 3],
            e: -5.0,
        };
        store(&mut fs, ivec3(0, 0, 0), bad, 1.4);
        let u = load(&fs, ivec3(0, 0, 0));
        assert!(u.rho >= RHO_FLOOR);
        assert!(u.pressure(1.4) >= P_FLOOR);
    }
}
