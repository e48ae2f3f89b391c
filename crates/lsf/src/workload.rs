//! The analyst workload generator.
//!
//! §4 describes the rhythm of the site: interactive analytics during
//! business hours, "large database jobs scheduled to run overnight", and
//! market data feeds arriving around the clock. The generator produces a
//! deterministic job-arrival tape from its own RNG stream: a
//! non-homogeneous Poisson process whose intensity follows that rhythm,
//! with job kinds and sizes drawn per arrival.

use intelliqos_simkern::{SimDuration, SimRng, SimTime, HOUR};

use crate::job::{JobKind, JobSpec};

/// Workload intensity profile and population.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Mean job submissions per hour during business hours.
    pub day_rate_per_hour: f64,
    /// Mean submissions per hour overnight (the big batch window).
    pub night_rate_per_hour: f64,
    /// Mean submissions per hour on weekends.
    pub weekend_rate_per_hour: f64,
    /// Number of distinct analysts submitting work.
    pub analysts: u32,
    /// Relative weights of job kinds, in [`JobKind::ALL`] order
    /// (data-mining, projection, model-eval, trend-sim, report).
    pub kind_weights: [f64; 5],
    /// Runtime spread: multiplier drawn log-normally with this sigma.
    pub runtime_sigma: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            day_rate_per_hour: 14.0,
            night_rate_per_hour: 8.0,
            weekend_rate_per_hour: 4.0,
            analysts: 40,
            // Overnight mining and simulations dominate load even if
            // reports dominate counts.
            kind_weights: [0.18, 0.22, 0.15, 0.15, 0.30],
            runtime_sigma: 0.5,
        }
    }
}

impl WorkloadConfig {
    /// Submission intensity (jobs/hour) at a given instant.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if t.is_weekend() {
            self.weekend_rate_per_hour
        } else if t.is_business_hours() {
            self.day_rate_per_hour
        } else {
            self.night_rate_per_hour
        }
    }
}

/// One submission on the workload tape.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the job is submitted.
    pub at: SimTime,
    /// What is submitted.
    pub spec: JobSpec,
}

/// Deterministic workload tape generator.
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: SimRng,
}

impl WorkloadGenerator {
    /// New generator; give it its own RNG stream.
    pub fn new(config: WorkloadConfig, rng: SimRng) -> Self {
        WorkloadGenerator { config, rng }
    }

    /// Draw one job spec.
    fn draw_spec(&mut self, _at: SimTime) -> JobSpec {
        let kind_idx = self
            .rng
            .choose_weighted(&self.config.kind_weights)
            // qoslint::allow(no-panic, scenario configs always carry positive kind weights)
            .expect("kind weights are positive");
        let kind = JobKind::ALL[kind_idx];
        let analyst = format!(
            "analyst{:02}",
            self.rng
                .uniform_u64(0, self.config.analysts.max(1) as u64 - 1)
        );
        let mut spec = JobSpec::defaults_for(kind, analyst);
        // Size heterogeneity: runtimes spread log-normally around the
        // kind's nominal value; demands scale with the same draw (a
        // bigger mining run also eats more memory and I/O).
        let scale = self
            .rng
            .lognormal_median(1.0, self.config.runtime_sigma)
            .clamp(0.25, 6.0);
        spec.runtime = SimDuration::from_secs_f64(spec.runtime.as_secs() as f64 * scale);
        spec.cpu_demand *= scale.sqrt();
        spec.mem_mb *= scale.sqrt();
        spec.io_demand = (spec.io_demand * scale.sqrt()).min(0.9);
        spec
    }

    /// Advance the stream past one [`WorkloadGenerator::draw_spec`]
    /// without building the spec: the same draws, in the same order.
    fn burn_spec(&mut self) {
        let _ = self.rng.choose_weighted(&self.config.kind_weights);
        let _ = self
            .rng
            .uniform_u64(0, self.config.analysts.max(1) as u64 - 1);
        let _ = self.rng.lognormal_median(1.0, self.config.runtime_sigma);
    }

    /// Generate the arrival tape over `[0, horizon)` by thinning a
    /// homogeneous Poisson process at the peak rate.
    pub fn generate_tape(&mut self, horizon: SimDuration) -> Vec<Arrival> {
        let peak = self
            .config
            .day_rate_per_hour
            .max(self.config.night_rate_per_hour)
            .max(self.config.weekend_rate_per_hour);
        assert!(peak > 0.0, "workload rate must be positive");
        let mean_gap_secs = HOUR as f64 / peak;
        let mut tape = Vec::new();
        let mut t = 0.0f64;
        let horizon_s = horizon.as_secs() as f64;
        loop {
            t += self.rng.exponential(mean_gap_secs);
            if t >= horizon_s {
                break;
            }
            let at = SimTime::from_secs(t as u64);
            // Thinning: accept with prob rate(t)/peak.
            let accept = self.rng.chance(self.config.rate_at(at) / peak);
            if accept {
                let spec = self.draw_spec(at);
                tape.push(Arrival { at, spec });
            } else {
                // Burn the same draws as the accept path so the tape
                // prefix is stable under horizon extension.
                self.burn_spec();
            }
        }
        tape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intelliqos_simkern::{DAY, WEEK};

    fn generator(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(WorkloadConfig::default(), SimRng::stream(seed, "workload"))
    }

    #[test]
    fn tape_is_deterministic_and_sorted() {
        let a = generator(1).generate_tape(SimDuration::from_days(7));
        let b = generator(1).generate_tape(SimDuration::from_days(7));
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(!a.is_empty());
    }

    #[test]
    fn burning_a_spec_advances_the_stream_like_drawing_one() {
        let mut drawn = generator(5);
        let mut burnt = generator(5);
        for i in 0..1000 {
            let _ = drawn.draw_spec(SimTime::from_secs(i));
            burnt.burn_spec();
            assert_eq!(drawn.rng.next_u64(), burnt.rng.next_u64());
        }
    }

    #[test]
    fn weekly_volume_is_plausible() {
        // Expected ≈ 5×(12h×14 + 12h×8) + 2×24h×4 = 5×264 + 192 = 1512.
        let tape = generator(2).generate_tape(SimDuration::from_secs(WEEK));
        let n = tape.len() as f64;
        assert!((n - 1512.0).abs() < 200.0, "n = {n}");
    }

    #[test]
    fn day_rate_exceeds_weekend_rate() {
        let tape = generator(3).generate_tape(SimDuration::from_days(14));
        let weekday: usize = tape.iter().filter(|a| !a.at.is_weekend()).count();
        let weekend: usize = tape.iter().filter(|a| a.at.is_weekend()).count();
        // 10 weekdays vs 4 weekend days; normalise per day.
        let wd_per_day = weekday as f64 / 10.0;
        let we_per_day = weekend as f64 / 4.0;
        assert!(
            wd_per_day > we_per_day * 1.5,
            "wd {wd_per_day} we {we_per_day}"
        );
    }

    #[test]
    fn all_job_kinds_appear() {
        let tape = generator(4).generate_tape(SimDuration::from_secs(WEEK));
        for kind in JobKind::ALL {
            assert!(
                tape.iter().any(|a| a.spec.kind == kind),
                "missing kind {kind}"
            );
        }
    }

    #[test]
    fn runtimes_are_heterogeneous_and_bounded() {
        let tape = generator(5).generate_tape(SimDuration::from_days(3));
        let mining: Vec<&Arrival> = tape
            .iter()
            .filter(|a| a.spec.kind == JobKind::DataMining)
            .collect();
        assert!(mining.len() > 3);
        let min = mining
            .iter()
            .map(|a| a.spec.runtime.as_secs())
            .min()
            .unwrap();
        let max = mining
            .iter()
            .map(|a| a.spec.runtime.as_secs())
            .max()
            .unwrap();
        assert!(max > min, "no heterogeneity");
        // Clamp bounds: 0.25×..6× of the 180-minute nominal.
        assert!(min >= (180 * 60) / 4);
        assert!(max <= 180 * 60 * 6);
    }

    #[test]
    fn rate_at_follows_calendar() {
        let cfg = WorkloadConfig::default();
        let mon_10am = SimTime::from_hours(10);
        let mon_2am = SimTime::from_hours(2);
        let sat_noon = SimTime::from_days(5) + SimDuration::from_hours(12);
        assert_eq!(cfg.rate_at(mon_10am), 14.0);
        assert_eq!(cfg.rate_at(mon_2am), 8.0);
        assert_eq!(cfg.rate_at(sat_noon), 4.0);
    }

    #[test]
    fn analysts_are_a_finite_population() {
        let tape = generator(6).generate_tape(SimDuration::from_secs(DAY));
        let mut users: Vec<&str> = tape.iter().map(|a| a.spec.user.as_str()).collect();
        users.sort_unstable();
        users.dedup();
        assert!(users.len() <= 40);
        assert!(users.len() > 5, "population too small: {}", users.len());
    }
}
