//! Dynamic Local Service Profiles (DLSP).
//!
//! §3.1: DLSPs "are generated by each agent controlled server in regular
//! intervals and contain information about server hardware, software,
//! load, capacity and services." The local status intelliagent compiles
//! one every wake-up; administration servers aggregate them into the
//! global DGSPL.

use crate::flat::{
    doc_header, section_header, FieldSink, FlatDoc, FlatError, FlatRecord, LineWriter,
};

const DOC_KIND: &str = "dlsp";
const DOC_VERSION: u32 = 1;

/// Snapshot of one service on the host.
#[derive(Debug, Clone, PartialEq)]
pub struct DlspService {
    /// Service name.
    pub name: String,
    /// Application type string.
    pub app_type: String,
    /// Version.
    pub version: String,
    /// Probe-derived status string: `running`, `refused`, `timeout`,
    /// `query-error`, `stopped`.
    pub status: String,
    /// Probe latency in ms, when the probe succeeded.
    pub latency_ms: Option<f64>,
}

impl DlspService {
    /// The fields of one `services` record, in file order.
    fn fields(&self, r: &mut impl FieldSink) {
        r.field("name", &self.name);
        r.field("type", &self.app_type);
        r.field("version", &self.version);
        r.field("status", &self.status);
        if let Some(lat) = self.latency_ms {
            r.num("latency_ms", lat);
        }
    }
}

/// A whole per-server profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Dlsp {
    /// Hostname.
    pub hostname: String,
    /// When it was generated (seconds since sim epoch).
    pub generated_at_secs: u64,
    /// Hardware model string.
    pub model: String,
    /// Operating system string.
    pub os: String,
    /// CPUs currently online.
    pub cpus: u32,
    /// RAM in GB.
    pub ram_gb: u32,
    /// Load score in [0, 1.5] (see `OsObservables::load_score`).
    pub load_score: f64,
    /// Free memory, MB.
    pub free_mem_mb: f64,
    /// CPU idle percentage.
    pub cpu_idle_pct: f64,
    /// Interactive users logged in.
    pub users: u32,
    /// Geographic location.
    pub location: String,
    /// Site name.
    pub site: String,
    /// Per-service snapshots.
    pub services: Vec<DlspService>,
}

/// DLSP parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DlspError {
    /// Underlying format problem.
    Format(FlatError),
    /// Missing required field.
    MissingField(&'static str),
}

impl std::fmt::Display for DlspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlspError::Format(e) => write!(f, "format error: {e}"),
            DlspError::MissingField(k) => write!(f, "missing field '{k}'"),
        }
    }
}

impl std::error::Error for DlspError {}

impl Dlsp {
    /// Serialise to the flat format.
    pub fn to_doc(&self) -> FlatDoc {
        let mut host = FlatRecord::new();
        self.host_fields(&mut host);
        let services = self
            .services
            .iter()
            .map(|s| {
                let mut r = FlatRecord::new();
                s.fields(&mut r);
                r
            })
            .collect();
        FlatDoc::new(DOC_KIND, DOC_VERSION)
            .with_section("host", vec![host])
            .with_section("services", services)
    }

    /// The lines of the profile's file, rendered straight from the
    /// profile: byte-identical to `self.to_doc().to_lines()`.
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(4 + self.services.len());
        out.push(doc_header(DOC_KIND, DOC_VERSION));
        out.push(section_header("host"));
        let mut host = LineWriter::default();
        self.host_fields(&mut host);
        out.push(host.finish());
        out.push(section_header("services"));
        for s in &self.services {
            let mut line = LineWriter::default();
            s.fields(&mut line);
            out.push(line.finish());
        }
        out
    }

    /// The fields of the `host` record, in file order.
    fn host_fields(&self, r: &mut impl FieldSink) {
        r.field("hostname", &self.hostname);
        r.num("generated_at", self.generated_at_secs as f64);
        r.field("model", &self.model);
        r.field("os", &self.os);
        r.num("cpus", self.cpus as f64);
        r.num("ram_gb", self.ram_gb as f64);
        r.num("load", self.load_score);
        r.num("free_mem_mb", self.free_mem_mb);
        r.num("cpu_idle_pct", self.cpu_idle_pct);
        r.num("users", self.users as f64);
        r.field("location", &self.location);
        r.field("site", &self.site);
    }

    /// Parse from the flat format.
    pub fn from_doc(doc: &FlatDoc) -> Result<Dlsp, DlspError> {
        let host = doc
            .section("host")
            .and_then(|s| s.first())
            .ok_or(DlspError::MissingField("host section"))?;
        let mut services = Vec::new();
        for r in doc.section("services").unwrap_or(&[]) {
            services.push(DlspService {
                name: r
                    .get("name")
                    .ok_or(DlspError::MissingField("name"))?
                    .to_string(),
                app_type: r.get("type").unwrap_or("unknown").to_string(),
                version: r.get("version").unwrap_or("?").to_string(),
                status: r
                    .get("status")
                    .ok_or(DlspError::MissingField("status"))?
                    .to_string(),
                latency_ms: r.get_num("latency_ms"),
            });
        }
        Ok(Dlsp {
            hostname: host
                .get("hostname")
                .ok_or(DlspError::MissingField("hostname"))?
                .to_string(),
            generated_at_secs: host
                .get_num("generated_at")
                .ok_or(DlspError::MissingField("generated_at"))?
                as u64,
            model: host.get("model").unwrap_or("?").to_string(),
            os: host.get("os").unwrap_or("?").to_string(),
            cpus: host.get_u32("cpus").unwrap_or(0),
            ram_gb: host.get_u32("ram_gb").unwrap_or(0),
            load_score: host.get_num("load").unwrap_or(0.0),
            free_mem_mb: host.get_num("free_mem_mb").unwrap_or(0.0),
            cpu_idle_pct: host.get_num("cpu_idle_pct").unwrap_or(0.0),
            users: host.get_u32("users").unwrap_or(0),
            location: host.get("location").unwrap_or("?").to_string(),
            site: host.get("site").unwrap_or("?").to_string(),
            services,
        })
    }

    /// Parse from text.
    pub fn parse_text(text: &str) -> Result<Dlsp, DlspError> {
        let doc = FlatDoc::parse_text(text).map_err(DlspError::Format)?;
        Dlsp::from_doc(&doc)
    }

    /// Are all listed services reporting `running`?
    pub fn all_services_running(&self) -> bool {
        self.services.iter().all(|s| s.status == "running")
    }

    /// Names of services not reporting `running`.
    pub fn unhealthy_services(&self) -> Vec<&str> {
        self.services
            .iter()
            .filter(|s| s.status != "running")
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Age of this profile relative to `now_secs`. Admin servers use
    /// staleness to detect dead status agents.
    pub fn age_secs(&self, now_secs: u64) -> u64 {
        now_secs.saturating_sub(self.generated_at_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dlsp {
        Dlsp {
            hostname: "db007".into(),
            generated_at_secs: 3_600,
            model: "Sun-E4500".into(),
            os: "Solaris".into(),
            cpus: 8,
            ram_gb: 8,
            load_score: 0.42,
            free_mem_mb: 2048.0,
            cpu_idle_pct: 57.5,
            users: 3,
            location: "London".into(),
            site: "LDN-DC1".into(),
            services: vec![
                DlspService {
                    name: "trades-db-07".into(),
                    app_type: "db-oracle".into(),
                    version: "8.1.7".into(),
                    status: "running".into(),
                    latency_ms: Some(132.5),
                },
                DlspService {
                    name: "web-07".into(),
                    app_type: "web".into(),
                    version: "1.3.26".into(),
                    status: "timeout".into(),
                    latency_ms: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let text = d.to_doc().to_text();
        let back = Dlsp::parse_text(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn health_queries() {
        let d = sample();
        assert!(!d.all_services_running());
        assert_eq!(d.unhealthy_services(), vec!["web-07"]);
    }

    #[test]
    fn age_computation() {
        let d = sample();
        assert_eq!(d.age_secs(4_000), 400);
        assert_eq!(d.age_secs(3_000), 0); // clock skew clamps to zero
    }

    #[test]
    fn missing_hostname_rejected() {
        let text = "%DOC dlsp v1\n%SECTION host\ngenerated_at=1";
        assert_eq!(
            Dlsp::parse_text(text),
            Err(DlspError::MissingField("hostname"))
        );
    }

    #[test]
    fn latency_roundtrips_with_four_decimals() {
        let mut d = sample();
        d.services[0].latency_ms = Some(123.4567);
        let back = Dlsp::parse_text(&d.to_doc().to_text()).unwrap();
        assert_eq!(back.services[0].latency_ms, Some(123.4567));
    }
}
