//! The traced serial step: `SerialSim::advance` replayed from the
//! crates' public calls, with a span around each call.
//!
//! Every buffer comes from a public constructor and every operation is
//! a public function, in the order `SerialSim::advance` performs them,
//! so the final state is bit-identical to the untraced solver (checked
//! in every run and by the benchmark's tests). The spans live in memory
//! and are summed per layer when the run ends; the step wall minus the
//! spans inside it is the unattributed time.

use std::sync::Arc;
use std::time::Instant;
use yy_field::Meters;
use yy_mesh::{build_overset_columns, Metric, OversetColumn, Panel};
use yy_mhd::rhs::{InteriorRange, RhsScratch};
use yy_mhd::tables::rotation_axis;
use yy_mhd::{compute_rhs, ForceTables, State};
use yy_obs::counters::CounterSet;
use yycore::serial::fill_pair;
use yycore::{RunConfig, SerialSim};

/// The layer a span was recorded around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SerialSim::auto_dt` (CFL step, every `dt_every` steps).
    Cfl,
    /// `State::copy_from` of the stage-start states.
    Copy,
    /// `compute_rhs` (one call per panel per stage).
    Rhs,
    /// `State::axpy_and_assign_axpy` / `State::axpy` (RK4 combine).
    Combine,
    /// `serial::fill_pair` (overset interpolation + wall conditions).
    FillPair,
    /// `State::has_non_finite` + `State::is_physical` after the step.
    Health,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

/// One recorded span: what was called, and its start and end in
/// nanoseconds since the replay was built. Spans are recorded in call
/// order, so each step's spans follow one another.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Time the untraced solver's step exactly as `SerialSim::run` does:
/// the CFL step at the `dt_every` cadence, then `SerialSim::advance`.
/// Returns the step wall in nanoseconds.
pub fn timed_step(sim: &mut SerialSim) -> u64 {
    let t = Instant::now();
    if sim.dt_cache == 0.0 || sim.step.is_multiple_of(sim.cfg.dt_every as u64) {
        sim.dt_cache = sim.auto_dt();
    }
    sim.advance(sim.dt_cache);
    t.elapsed().as_nanos() as u64
}

/// A serial simulation stepped by public calls instead of
/// `SerialSim::advance`. `sim` only holds the state (its public panels,
/// clock and dt cache) and answers `auto_dt`.
pub struct Replay {
    /// The state container.
    pub sim: SerialSim,
    metric: Metric,
    forces: [ForceTables; 2],
    cols: Vec<OversetColumn>,
    range: InteriorRange,
    y0: [State; 2],
    k: [State; 2],
    stage: [State; 2],
    scratch: RhsScratch,
    meter: Meters,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Replay {
    /// Build the state and every work buffer for `cfg`.
    pub fn new(cfg: RunConfig) -> Replay {
        let sim = SerialSim::new(cfg);
        let grid = &sim.grid;
        let metric = Metric::full(grid);
        let (_, nth, nph) = grid.dims();
        let halo = grid.spec().halo;
        let p = &sim.cfg.params;
        let forces = [Panel::Yin, Panel::Yang]
            .map(|pn| ForceTables::new(&metric, nth, nph, halo, p.g0, p.omega, rotation_axis(pn)));
        let cols = build_overset_columns(grid).expect("the workload grid is a valid Yin-Yang grid");
        let range = InteriorRange::full_panel(grid);
        let shape = grid.full_shape();
        let mut scratch = RhsScratch::new(shape);
        scratch.use_reference = sim.cfg.rhs_reference;
        scratch.phi_block = sim.cfg.phi_block;
        let zeros = || [State::zeros(shape), State::zeros(shape)];
        Replay {
            metric,
            forces,
            cols,
            range,
            y0: zeros(),
            k: zeros(),
            stage: zeros(),
            scratch,
            meter: Meters::with_counters(Arc::new(CounterSet::enabled())),
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            sim,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn close(&mut self, layer: Layer, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
        });
    }

    /// One RK4 step, the same arithmetic in the same order as
    /// [`timed_step`]. Returns the step wall in nanoseconds.
    pub fn step(&mut self) -> u64 {
        let t_step = self.now();
        if self.sim.dt_cache == 0.0 || self.sim.step.is_multiple_of(self.sim.cfg.dt_every as u64) {
            let t = self.now();
            self.sim.dt_cache = self.sim.auto_dt();
            self.close(Layer::Cfl, t);
        }
        let dt = self.sim.dt_cache;
        let weights = geomath::rk4::RK4_WEIGHTS;
        let nodes = [0.5, 0.5, 1.0];

        let t = self.now();
        for (p, state) in [&self.sim.yin, &self.sim.yang].into_iter().enumerate() {
            self.y0[p].copy_from(state);
            self.stage[p].copy_from(state);
        }
        self.close(Layer::Copy, t);

        let (t_inner, mag_bc) = (self.sim.cfg.params.t_inner, self.sim.cfg.mag_bc);
        for s in 0..4 {
            for p in 0..2 {
                let t = self.now();
                compute_rhs(
                    &self.stage[p],
                    &self.metric,
                    &self.forces[p],
                    &self.sim.cfg.params,
                    &self.range,
                    &mut self.scratch,
                    &mut self.k[p],
                    &mut self.meter,
                );
                self.close(Layer::Rhs, t);
            }
            let t = self.now();
            if s < 3 {
                let [st0, st1] = &mut self.stage;
                self.sim.yin.axpy_and_assign_axpy(
                    dt * weights[s],
                    &self.k[0],
                    st0,
                    &self.y0[0],
                    dt * nodes[s],
                );
                self.sim.yang.axpy_and_assign_axpy(
                    dt * weights[s],
                    &self.k[1],
                    st1,
                    &self.y0[1],
                    dt * nodes[s],
                );
                self.close(Layer::Combine, t);
                let t = self.now();
                let [st0, st1] = &mut self.stage;
                fill_pair(st0, st1, &self.cols, t_inner, mag_bc, Some(&mut self.meter));
                self.close(Layer::FillPair, t);
            } else {
                self.sim.yin.axpy(dt * weights[s], &self.k[0]);
                self.sim.yang.axpy(dt * weights[s], &self.k[1]);
                self.close(Layer::Combine, t);
            }
        }
        let t = self.now();
        fill_pair(
            &mut self.sim.yin,
            &mut self.sim.yang,
            &self.cols,
            t_inner,
            mag_bc,
            Some(&mut self.meter),
        );
        self.close(Layer::FillPair, t);
        self.sim.time += dt;
        self.sim.step += 1;
        self.now() - t_step
    }

    /// The health scans `SerialSim::run` performs after each step, as a
    /// span of their own (outside the step wall). True when the state is
    /// finite and physical.
    pub fn health(&mut self) -> bool {
        let t = self.now();
        let ok = !self.sim.yin.has_non_finite()
            && !self.sim.yang.has_non_finite()
            && self.sim.yin.is_physical()
            && self.sim.yang.is_physical();
        self.close(Layer::Health, t);
        ok
    }

    /// Summed span time per layer (nanoseconds), indexed by
    /// `Layer as usize`.
    pub fn layer_ns(&self) -> [u64; LAYERS] {
        let mut out = [0u64; LAYERS];
        for s in &self.spans {
            out[s.layer as usize] += s.end_ns - s.start_ns;
        }
        out
    }
}
