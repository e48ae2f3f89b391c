//! Dynamic Global Service Profile Lists (DGSPL).
//!
//! §3.1: DGSPLs "contain information about all running and available
//! services across the entire datacentre. Available services are
//! presented by `<Server type, OS, memory and CPUs, Application type and
//! version, Current Load, Users logged in, Geographical Location, Site
//! Name>`." Administration servers regenerate them every ~15 minutes and
//! use them to "present the best available database server for the
//! batch job in a shortlist, with the best choice always first" (§4).

use crate::dlsp::Dlsp;
use crate::flat::{
    doc_header, section_header, FieldSink, FlatDoc, FlatError, FlatRecord, LineWriter,
};

const DOC_KIND: &str = "dgspl";
const DOC_VERSION: u32 = 1;

/// One available-service tuple, exactly the paper's 8-field shape plus
/// the hostname (needed to actually submit anywhere) and compute power
/// (needed for the SLKT equal-or-higher-power ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct DgsplEntry {
    /// Hosting server name.
    pub hostname: String,
    /// Server type (hardware model string).
    pub server_type: String,
    /// Operating system.
    pub os: String,
    /// Memory in GB.
    pub ram_gb: u32,
    /// CPU count.
    pub cpus: u32,
    /// Total compute power (CPUs × per-CPU power) — derived, carried so
    /// consumers don't need the hardware catalogue.
    pub compute_power: f64,
    /// Application type string.
    pub app_type: String,
    /// Application version.
    pub version: String,
    /// Current load score.
    pub load: f64,
    /// Users logged in.
    pub users: u32,
    /// Geographical location.
    pub location: String,
    /// Site name.
    pub site: String,
    /// Service name.
    pub service: String,
}

impl DgsplEntry {
    /// The fields of one `available` record, in file order.
    fn fields(&self, r: &mut impl FieldSink) {
        r.field("hostname", &self.hostname);
        r.field("server_type", &self.server_type);
        r.field("os", &self.os);
        r.num("ram_gb", self.ram_gb as f64);
        r.num("cpus", self.cpus as f64);
        r.num("power", self.compute_power);
        r.field("app_type", &self.app_type);
        r.field("version", &self.version);
        r.num("load", self.load);
        r.num("users", self.users as f64);
        r.field("location", &self.location);
        r.field("site", &self.site);
        r.field("service", &self.service);
    }
}

/// The datacenter-wide list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dgspl {
    /// When it was generated (seconds since sim epoch).
    pub generated_at_secs: u64,
    /// All available-service entries.
    pub entries: Vec<DgsplEntry>,
}

/// DGSPL parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DgsplError {
    /// Underlying format problem.
    Format(FlatError),
    /// Missing required field.
    MissingField(&'static str),
}

impl std::fmt::Display for DgsplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DgsplError::Format(e) => write!(f, "format error: {e}"),
            DgsplError::MissingField(k) => write!(f, "missing field '{k}'"),
        }
    }
}

impl std::error::Error for DgsplError {}

impl Dgspl {
    /// Build from a collection of fresh DLSPs: every **running** service
    /// on every profiled host becomes an entry. `power_of` maps a model
    /// string + CPU count to total compute power.
    pub fn from_dlsps<'a, I, F>(dlsps: I, generated_at_secs: u64, power_of: F) -> Dgspl
    where
        I: IntoIterator<Item = &'a Dlsp>,
        F: Fn(&str, u32) -> f64,
    {
        let mut entries = Vec::new();
        for d in dlsps {
            for s in &d.services {
                if s.status != "running" {
                    continue;
                }
                entries.push(DgsplEntry {
                    hostname: d.hostname.clone(),
                    server_type: d.model.clone(),
                    os: d.os.clone(),
                    ram_gb: d.ram_gb,
                    cpus: d.cpus,
                    compute_power: power_of(&d.model, d.cpus),
                    app_type: s.app_type.clone(),
                    version: s.version.clone(),
                    load: d.load_score,
                    users: d.users,
                    location: d.location.clone(),
                    site: d.site.clone(),
                    service: s.name.clone(),
                });
            }
        }
        Dgspl {
            generated_at_secs,
            entries,
        }
    }

    /// All entries of an application type.
    pub fn of_type(&self, app_type: &str) -> Vec<&DgsplEntry> {
        self.entries
            .iter()
            .filter(|e| e.app_type == app_type)
            .collect()
    }

    /// The paper's shortlist over an arbitrary entry predicate —
    /// "the best choice always first". Ordering: lowest load, then
    /// highest compute power, then fewest users, hostname as the
    /// deterministic tiebreak.
    pub fn shortlist_by<F>(&self, pred: F) -> Vec<&DgsplEntry>
    where
        F: Fn(&DgsplEntry) -> bool,
    {
        let mut out: Vec<&DgsplEntry> = self.entries.iter().filter(|e| pred(e)).collect();
        out.sort_by(|a, b| {
            a.load
                .partial_cmp(&b.load)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    b.compute_power
                        .partial_cmp(&a.compute_power)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.users.cmp(&b.users))
                .then(a.hostname.cmp(&b.hostname))
        });
        out
    }

    /// Shortlist restricted to one application type.
    pub fn shortlist(&self, app_type: &str) -> Vec<&DgsplEntry> {
        self.shortlist_by(|e| e.app_type == app_type)
    }

    /// The SLKT-guided replacement shortlist for a failed server: only
    /// candidates of **equal or higher power** than the failed hardware,
    /// same-model-with-more-resources preferred first (the paper's
    /// "prefer first a server of the same model with more CPUs and
    /// memory"), then the generic best-first ordering. `pred` selects
    /// the eligible application entries (type or type family).
    pub fn replacement_shortlist_by<F>(
        &self,
        pred: F,
        failed_model: &str,
        failed_power: f64,
        failed_ram_gb: u32,
    ) -> Vec<&DgsplEntry>
    where
        F: Fn(&DgsplEntry) -> bool,
    {
        let mut out: Vec<&DgsplEntry> = self
            .entries
            .iter()
            .filter(|e| pred(e) && e.compute_power >= failed_power && e.ram_gb >= failed_ram_gb)
            .collect();
        out.sort_by(|a, b| {
            let a_same = a.server_type == failed_model;
            let b_same = b.server_type == failed_model;
            b_same
                .cmp(&a_same) // same model first
                .then(
                    a.load
                        .partial_cmp(&b.load)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(
                    b.compute_power
                        .partial_cmp(&a.compute_power)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.hostname.cmp(&b.hostname))
        });
        out
    }

    /// Replacement shortlist restricted to one application type.
    pub fn replacement_shortlist(
        &self,
        app_type: &str,
        failed_model: &str,
        failed_power: f64,
        failed_ram_gb: u32,
    ) -> Vec<&DgsplEntry> {
        self.replacement_shortlist_by(
            |e| e.app_type == app_type,
            failed_model,
            failed_power,
            failed_ram_gb,
        )
    }

    /// Serialise to the flat format.
    pub fn to_doc(&self) -> FlatDoc {
        let mut meta = FlatRecord::new();
        self.meta_fields(&mut meta);
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut r = FlatRecord::new();
                e.fields(&mut r);
                r
            })
            .collect();
        FlatDoc::new(DOC_KIND, DOC_VERSION)
            .with_section("meta", vec![meta])
            .with_section("available", entries)
    }

    /// The lines of the list's file, rendered straight from the list:
    /// byte-identical to `self.to_doc().to_lines()`.
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(4 + self.entries.len());
        out.push(doc_header(DOC_KIND, DOC_VERSION));
        out.push(section_header("meta"));
        let mut meta = LineWriter::default();
        self.meta_fields(&mut meta);
        out.push(meta.finish());
        out.push(section_header("available"));
        for e in &self.entries {
            let mut line = LineWriter::default();
            e.fields(&mut line);
            out.push(line.finish());
        }
        out
    }

    /// The fields of the `meta` record.
    fn meta_fields(&self, r: &mut impl FieldSink) {
        r.num("generated_at", self.generated_at_secs as f64);
    }

    /// Parse from the flat format.
    pub fn from_doc(doc: &FlatDoc) -> Result<Dgspl, DgsplError> {
        let generated_at_secs =
            doc.section("meta")
                .and_then(|s| s.first())
                .and_then(|r| r.get_num("generated_at"))
                .ok_or(DgsplError::MissingField("generated_at"))? as u64;
        let mut entries = Vec::new();
        for r in doc.section("available").unwrap_or(&[]) {
            entries.push(DgsplEntry {
                hostname: r
                    .get("hostname")
                    .ok_or(DgsplError::MissingField("hostname"))?
                    .to_string(),
                server_type: r.get("server_type").unwrap_or("?").to_string(),
                os: r.get("os").unwrap_or("?").to_string(),
                ram_gb: r.get_u32("ram_gb").unwrap_or(0),
                cpus: r.get_u32("cpus").unwrap_or(0),
                compute_power: r.get_num("power").unwrap_or(0.0),
                app_type: r
                    .get("app_type")
                    .ok_or(DgsplError::MissingField("app_type"))?
                    .to_string(),
                version: r.get("version").unwrap_or("?").to_string(),
                load: r.get_num("load").unwrap_or(0.0),
                users: r.get_u32("users").unwrap_or(0),
                location: r.get("location").unwrap_or("?").to_string(),
                site: r.get("site").unwrap_or("?").to_string(),
                service: r
                    .get("service")
                    .ok_or(DgsplError::MissingField("service"))?
                    .to_string(),
            });
        }
        Ok(Dgspl {
            generated_at_secs,
            entries,
        })
    }

    /// Parse from text.
    pub fn parse_text(text: &str) -> Result<Dgspl, DgsplError> {
        let doc = FlatDoc::parse_text(text).map_err(DgsplError::Format)?;
        Dgspl::from_doc(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlsp::DlspService;

    fn entry(host: &str, model: &str, power: f64, ram: u32, load: f64) -> DgsplEntry {
        DgsplEntry {
            hostname: host.into(),
            server_type: model.into(),
            os: "Solaris".into(),
            ram_gb: ram,
            cpus: 8,
            compute_power: power,
            app_type: "db-oracle".into(),
            version: "8.1.7".into(),
            load,
            users: 0,
            location: "London".into(),
            site: "LDN".into(),
            service: format!("svc-{host}"),
        }
    }

    #[test]
    fn shortlist_orders_best_first() {
        let dg = Dgspl {
            generated_at_secs: 0,
            entries: vec![
                entry("c", "Sun-E4500", 7.2, 8, 0.8),
                entry("a", "Sun-E4500", 7.2, 8, 0.1),
                entry("b", "Sun-E10000", 32.0, 32, 0.1),
            ],
        };
        let sl = dg.shortlist("db-oracle");
        // Load ties at 0.1 → higher power (the E10K) wins.
        assert_eq!(sl[0].hostname, "b");
        assert_eq!(sl[1].hostname, "a");
        assert_eq!(sl[2].hostname, "c");
        assert!(dg.shortlist("web").is_empty());
    }

    #[test]
    fn replacement_requires_equal_or_higher_power_and_ram() {
        let dg = Dgspl {
            generated_at_secs: 0,
            entries: vec![
                entry("weak", "Sun-E450", 3.2, 4, 0.0),
                entry("same-bigger", "Sun-E4500", 10.8, 16, 0.5),
                entry("other-huge", "Sun-E10000", 32.0, 32, 0.2),
                entry("same-smaller", "Sun-E4500", 3.6, 4, 0.0),
            ],
        };
        // Failed: an E4500 with power 7.2 and 8 GB.
        let sl = dg.replacement_shortlist("db-oracle", "Sun-E4500", 7.2, 8);
        let names: Vec<&str> = sl.iter().map(|e| e.hostname.as_str()).collect();
        // Same model preferred first, despite the E10K's lower load.
        assert_eq!(names, vec!["same-bigger", "other-huge"]);
    }

    #[test]
    fn from_dlsps_keeps_only_running() {
        let dlsp = Dlsp {
            hostname: "db001".into(),
            generated_at_secs: 900,
            model: "Sun-E4500".into(),
            os: "Solaris".into(),
            cpus: 8,
            ram_gb: 8,
            load_score: 0.3,
            free_mem_mb: 1024.0,
            cpu_idle_pct: 70.0,
            users: 2,
            location: "London".into(),
            site: "LDN".into(),
            services: vec![
                DlspService {
                    name: "ok-db".into(),
                    app_type: "db-oracle".into(),
                    version: "8.1.7".into(),
                    status: "running".into(),
                    latency_ms: Some(100.0),
                },
                DlspService {
                    name: "dead-db".into(),
                    app_type: "db-oracle".into(),
                    version: "8.1.7".into(),
                    status: "refused".into(),
                    latency_ms: None,
                },
            ],
        };
        let dg = Dgspl::from_dlsps(&[dlsp], 1000, |_, cpus| cpus as f64 * 0.9);
        assert_eq!(dg.entries.len(), 1);
        assert_eq!(dg.entries[0].service, "ok-db");
        assert!((dg.entries[0].compute_power - 7.2).abs() < 1e-9);
        assert_eq!(dg.generated_at_secs, 1000);
    }

    #[test]
    fn roundtrip() {
        let dg = Dgspl {
            generated_at_secs: 777,
            entries: vec![entry("a", "Sun-E4500", 7.2, 8, 0.25)],
        };
        let back = Dgspl::parse_text(&dg.to_doc().to_text()).unwrap();
        assert_eq!(back, dg);
    }

    #[test]
    fn parse_requires_meta() {
        let text = "%DOC dgspl v1\n%SECTION available\nhostname=a|app_type=x|service=s";
        assert_eq!(
            Dgspl::parse_text(text),
            Err(DgsplError::MissingField("generated_at"))
        );
    }
}
