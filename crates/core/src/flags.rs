//! The flag-file protocol.
//!
//! §3.3: "Whenever a local intelliagent runs, it produces a flag in the
//! dedicated `/logs/intelliagents/intelliagent_name` directory on the
//! local server disk to show the status of the run. A number of flags
//! are produced with appropriate naming conventions that show what
//! happened and exactly where the agent found a fault. Absence of these
//! flags means that we either have an internal intelliagent problem or
//! that they did not run at all."
//!
//! Flag paths encode `agent / run_<t>.<outcome>[.<detail>]`. Admin
//! servers watch flag freshness; agents clean their own old flags
//! (self-maintenance).

use std::fmt::Write as _;

use intelliqos_cluster::fs::SimFs;
use intelliqos_simkern::SimTime;

/// Root directory for all agent flags.
pub const FLAG_ROOT: &str = "/logs/intelliagents";

/// Install location of the agent suite, fixed by convention ("always in
/// the same physical location `/apps/intelliagents`").
pub const AGENT_INSTALL_PATH: &str = "/apps/intelliagents";

/// Outcome encoded in a flag name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagOutcome {
    /// Run completed, nothing wrong.
    Ok,
    /// A fault was detected (detail names where).
    FaultDetected,
    /// A fault was detected and repaired.
    Repaired,
    /// A fault was detected but could not be healed; humans paged.
    Escalated,
    /// The agent itself hit an internal error.
    AgentError,
}

impl FlagOutcome {
    /// Suffix used in the flag filename.
    pub fn suffix(self) -> &'static str {
        match self {
            FlagOutcome::Ok => "ok",
            FlagOutcome::FaultDetected => "fault",
            FlagOutcome::Repaired => "repaired",
            FlagOutcome::Escalated => "escalated",
            FlagOutcome::AgentError => "agenterror",
        }
    }

    /// Parse a suffix back.
    pub fn from_suffix(s: &str) -> Option<FlagOutcome> {
        Some(match s {
            "ok" => FlagOutcome::Ok,
            "fault" => FlagOutcome::FaultDetected,
            "repaired" => FlagOutcome::Repaired,
            "escalated" => FlagOutcome::Escalated,
            "agenterror" => FlagOutcome::AgentError,
            _ => return None,
        })
    }
}

/// A parsed flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flag {
    /// Agent name, e.g. `intelliagent_service`.
    pub agent: String,
    /// Run timestamp (seconds since epoch).
    pub run_at_secs: u64,
    /// Outcome.
    pub outcome: FlagOutcome,
    /// Optional detail ("exactly where the agent found a fault").
    pub detail: Option<String>,
}

/// Directory of one agent's flags.
pub fn agent_dir(agent: &str) -> String {
    format!("{FLAG_ROOT}/{agent}")
}

/// Write a flag for a run. Detail is sanitised into the filename
/// (dots/slashes replaced) so parsing stays unambiguous.
pub fn write_flag(
    fs: &mut SimFs,
    agent: &str,
    outcome: FlagOutcome,
    detail: Option<&str>,
    now: SimTime,
) -> Result<(), intelliqos_cluster::fs::FsError> {
    let secs = now.as_secs();
    let digits = secs.checked_ilog10().map_or(1, |d| d as usize + 1);
    let detail_len = detail.map_or(0, |d| 1 + d.chars().count());
    // One exact-size allocation: the path is stored as the file's key.
    let mut path = String::with_capacity(
        FLAG_ROOT.len()
            + agent.len()
            + "//run_.".len()
            + digits
            + outcome.suffix().len()
            + detail_len,
    );
    let _ = write!(path, "{FLAG_ROOT}/{agent}/run_{secs}.{}", outcome.suffix());
    if let Some(d) = detail {
        path.push('.');
        path.extend(d.chars().map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        }));
    }
    fs.write(path, vec![format!("at={secs}")], now)
}

/// Parse one flag path (under [`FLAG_ROOT`]).
pub fn parse_flag_path(path: &str) -> Option<Flag> {
    let rest = path.strip_prefix(FLAG_ROOT)?.strip_prefix('/')?;
    let (agent, file) = rest.split_once('/')?;
    let file = file.strip_prefix("run_")?;
    let mut parts = file.splitn(3, '.');
    let run_at_secs: u64 = parts.next()?.parse().ok()?;
    let outcome = FlagOutcome::from_suffix(parts.next()?)?;
    let detail = parts.next().map(|s| s.to_string());
    Some(Flag {
        agent: agent.to_string(),
        run_at_secs,
        outcome,
        detail,
    })
}

/// All flags of one agent on a filesystem, oldest first.
pub fn read_flags(fs: &SimFs, agent: &str) -> Vec<Flag> {
    let mut flags: Vec<Flag> = fs
        .list(&agent_dir(agent))
        .into_iter()
        .filter_map(parse_flag_path)
        .collect();
    flags.sort_by_key(|f| f.run_at_secs);
    flags
}

/// Timestamp of the most recent flag of one agent, if any. Admin
/// servers compare this against `now - (X+5 min)`.
pub fn last_run_secs(fs: &SimFs, agent: &str) -> Option<u64> {
    read_flags(fs, agent).last().map(|f| f.run_at_secs)
}

/// Self-maintenance: remove all previous flags of an agent ("it removes
/// flags from previous runs"). Returns how many were removed.
pub fn clear_flags(fs: &mut SimFs, agent: &str) -> usize {
    fs.remove_dir(&agent_dir(agent))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> SimFs {
        SimFs::with_standard_layout()
    }

    #[test]
    fn write_and_parse_roundtrip() {
        let mut fs = fs();
        write_flag(
            &mut fs,
            "intelliagent_service",
            FlagOutcome::Repaired,
            Some("trades-db-07 restart"),
            SimTime::from_mins(5),
        )
        .unwrap();
        let flags = read_flags(&fs, "intelliagent_service");
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].outcome, FlagOutcome::Repaired);
        assert_eq!(flags[0].run_at_secs, 300);
        assert_eq!(flags[0].detail.as_deref(), Some("trades-db-07_restart"));
    }

    #[test]
    fn flags_sort_by_run_time() {
        let mut fs = fs();
        for t in [30u64, 10, 20] {
            write_flag(
                &mut fs,
                "intelliagent_cpu",
                FlagOutcome::Ok,
                None,
                SimTime::from_mins(t),
            )
            .unwrap();
        }
        let flags = read_flags(&fs, "intelliagent_cpu");
        let times: Vec<u64> = flags.iter().map(|f| f.run_at_secs).collect();
        assert_eq!(times, vec![600, 1200, 1800]);
        assert_eq!(last_run_secs(&fs, "intelliagent_cpu"), Some(1800));
    }

    #[test]
    fn absence_of_flags_is_detectable() {
        let fs = fs();
        assert_eq!(last_run_secs(&fs, "intelliagent_net"), None);
        assert!(read_flags(&fs, "intelliagent_net").is_empty());
    }

    #[test]
    fn clear_flags_is_self_maintenance() {
        let mut fs = fs();
        for t in 0..5u64 {
            write_flag(&mut fs, "a", FlagOutcome::Ok, None, SimTime::from_mins(t)).unwrap();
        }
        assert_eq!(clear_flags(&mut fs, "a"), 5);
        assert!(read_flags(&fs, "a").is_empty());
    }

    #[test]
    fn agents_have_separate_directories() {
        let mut fs = fs();
        write_flag(&mut fs, "a", FlagOutcome::Ok, None, SimTime::ZERO).unwrap();
        write_flag(&mut fs, "b", FlagOutcome::AgentError, None, SimTime::ZERO).unwrap();
        assert_eq!(read_flags(&fs, "a").len(), 1);
        assert_eq!(read_flags(&fs, "b").len(), 1);
        assert_eq!(read_flags(&fs, "b")[0].outcome, FlagOutcome::AgentError);
    }

    #[test]
    fn bad_paths_do_not_parse() {
        assert!(parse_flag_path("/logs/other/run_1.ok").is_none());
        assert!(parse_flag_path("/logs/intelliagents/a/notarun").is_none());
        assert!(parse_flag_path("/logs/intelliagents/a/run_x.ok").is_none());
        assert!(parse_flag_path("/logs/intelliagents/a/run_1.bogus").is_none());
    }

    #[test]
    fn outcome_suffix_roundtrip() {
        for o in [
            FlagOutcome::Ok,
            FlagOutcome::FaultDetected,
            FlagOutcome::Repaired,
            FlagOutcome::Escalated,
            FlagOutcome::AgentError,
        ] {
            assert_eq!(FlagOutcome::from_suffix(o.suffix()), Some(o));
        }
    }
}
