//! Property-based tests on the ontology layer: the flat-ASCII codec and
//! every ontology document type must round-trip losslessly through
//! their on-disk form, for arbitrary content. Driven by the in-tree
//! deterministic case generator (`common::cases`).

mod common;

use common::{cases, Gen};

use intelliqos::ontology::dlsp::DlspService;
use intelliqos::ontology::slkt::{Slkt, SlktApp, SlktHardware};
use intelliqos::ontology::{
    flat::{escape, unescape, FlatDoc, FlatRecord},
    Bounds, ConstraintStore, Dgspl, DgsplEntry, Dlsp, Issl, IsslEntry,
};

fn fields(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<(String, String)> {
    let n = g.usize_in(len.start, len.end);
    (0..n).map(|_| (g.ident(), g.ascii_value(40))).collect()
}

#[test]
fn escape_roundtrips() {
    cases(256, |g| {
        let s = g.ascii_value(40);
        let esc = escape(&s);
        // Escaped form has no structural characters.
        assert!(!esc.contains('|') && !esc.contains('=') && !esc.contains('\n'));
        assert_eq!(unescape(&esc).unwrap(), s);
    });
}

#[test]
fn record_roundtrips() {
    cases(128, |g| {
        let fs = fields(g, 1..8);
        let mut rec = FlatRecord::new();
        for (k, v) in &fs {
            rec = rec.set(k.clone(), v.clone());
        }
        let line = rec.to_line();
        let back = FlatRecord::from_line(&line, 0).unwrap();
        assert_eq!(back, rec);
    });
}

#[test]
fn doc_roundtrips() {
    cases(64, |g| {
        let kind = g.ident();
        let version = g.u32_in(1, 99);
        let mut doc = FlatDoc::new(kind, version);
        for _ in 0..g.usize_in(0, 4) {
            let name = g.ident();
            let recs = (0..g.usize_in(0, 4))
                .map(|_| {
                    let mut r = FlatRecord::new();
                    for (k, v) in fields(g, 1..5) {
                        r = r.set(k, v);
                    }
                    r
                })
                .collect();
            doc = doc.with_section(name, recs);
        }
        let text = doc.to_text();
        let back = FlatDoc::parse_text(&text).unwrap();
        assert_eq!(back, doc);
    });
}

#[test]
fn issl_roundtrips() {
    cases(64, |g| {
        let mut issl = Issl::new();
        for _ in 0..g.usize_in(0, 20) {
            let entry = IsslEntry {
                hostname: g.ident(),
                ip: g.ident(),
                services: (0..g.usize_in(0, 4)).map(|_| g.ident()).collect(),
            };
            issl.add(entry).unwrap();
        }
        let text = issl.to_doc().to_text();
        assert_eq!(Issl::parse_text(&text).unwrap(), issl);
    });
}

#[test]
fn dlsp_roundtrips() {
    cases(64, |g| {
        let statuses = ["running", "refused", "timeout", "query-error"];
        let dlsp = Dlsp {
            hostname: g.ident(),
            generated_at_secs: g.u64_in(0, 100_000_000),
            model: "Sun-E4500".into(),
            os: "Solaris".into(),
            cpus: 8,
            ram_gb: 8,
            // Quantise to the codec's 4-decimal float formatting.
            load_score: (g.f64_in(0.0, 1.5) * 10_000.0).round() / 10_000.0,
            free_mem_mb: 1024.0,
            cpu_idle_pct: 50.0,
            users: g.u32_in(0, 500),
            location: "London".into(),
            site: "LDN".into(),
            services: (0..g.usize_in(0, 6))
                .map(|_| DlspService {
                    name: g.ident(),
                    app_type: "db-oracle".into(),
                    version: g.ident(),
                    status: g.choose(&statuses).to_string(),
                    latency_ms: None,
                })
                .collect(),
        };
        let text = dlsp.to_doc().to_text();
        assert_eq!(Dlsp::parse_text(&text).unwrap(), dlsp);
    });
}

/// A number for a numeric field: integral and fractional, negative,
/// and at or above 1e15 (where integral values take four decimals).
fn any_num(g: &mut Gen) -> f64 {
    match g.usize_in(0, 6) {
        0 => g.u64_in(0, 100_000) as f64,
        1 => -(g.u64_in(0, 100_000) as f64),
        2 => g.f64_in(-1e6, 1e6),
        3 => g.f64_in(1e15, 1e18).round(),
        4 => -1e15,
        _ => g.f64_in(0.0, 1.0),
    }
}

fn any_dlsp(g: &mut Gen) -> Dlsp {
    Dlsp {
        hostname: g.ascii_value(20),
        generated_at_secs: g.u64_in(0, 1 << 62),
        model: g.ascii_value(12),
        os: g.ascii_value(12),
        cpus: g.u32_in(0, u32::MAX),
        ram_gb: g.u32_in(0, 4096),
        load_score: any_num(g),
        free_mem_mb: any_num(g),
        cpu_idle_pct: any_num(g),
        users: g.u32_in(0, 500),
        location: g.ascii_value(12),
        site: g.ascii_value(12),
        services: (0..g.usize_in(0, 6))
            .map(|_| DlspService {
                name: g.ascii_value(20),
                app_type: g.ascii_value(12),
                version: g.ascii_value(8),
                status: g.ascii_value(10),
                // Some services carry no `latency_ms` field at all.
                latency_ms: g.bool().then(|| any_num(g)),
            })
            .collect(),
    }
}

#[test]
fn dlsp_and_dgspl_lines_equal_their_doc_lines() {
    cases(256, |g| {
        let dlsp = any_dlsp(g);
        assert_eq!(dlsp.to_lines(), dlsp.to_doc().to_lines());
        let dgspl = Dgspl {
            generated_at_secs: g.u64_in(0, 1 << 62),
            entries: (0..g.usize_in(0, 8))
                .map(|_| DgsplEntry {
                    hostname: g.ascii_value(20),
                    server_type: g.ascii_value(12),
                    os: g.ascii_value(12),
                    ram_gb: g.u32_in(0, u32::MAX),
                    cpus: g.u32_in(0, 512),
                    compute_power: any_num(g),
                    app_type: g.ascii_value(12),
                    version: g.ascii_value(8),
                    load: any_num(g),
                    users: g.u32_in(0, 500),
                    location: g.ascii_value(12),
                    site: g.ascii_value(12),
                    service: g.ascii_value(20),
                })
                .collect(),
        };
        assert_eq!(dgspl.to_lines(), dgspl.to_doc().to_lines());
        // Stored lines carry no spare capacity.
        for line in dlsp.to_lines().iter().chain(&dgspl.to_lines()) {
            assert_eq!(line.capacity(), line.len(), "{line:?}");
        }
    });
}

#[test]
fn slkt_roundtrips() {
    cases(64, |g| {
        let slkt = Slkt {
            hostname: g.ident(),
            ip: "10.0.0.1".into(),
            hardware: SlktHardware {
                model: "Sun-E10000".into(),
                cpus: 32,
                ram_gb: 32,
                disks: 12,
            },
            apps: (0..g.usize_in(0, 4))
                .map(|_| SlktApp {
                    name: g.ident(),
                    app_type: "db-oracle".into(),
                    version: "8.1.7".into(),
                    binary_path: "/apps/db/bin".into(),
                    port: 1521,
                    processes: (0..g.usize_in(1, 4))
                        .map(|_| (g.ident(), g.u32_in(1, 9)))
                        .collect(),
                    startup_sequence: vec!["listener".into(), "instance".into()],
                    depends_on: vec![],
                    mounts: vec!["/apps".into()],
                    connect_timeout_secs: 30,
                })
                .collect(),
        };
        let text = slkt.to_doc().to_text();
        assert_eq!(Slkt::parse_text(&text).unwrap(), slkt);
    });
}

#[test]
fn dgspl_roundtrips_and_shortlist_is_sorted() {
    cases(64, |g| {
        let dgspl = Dgspl {
            generated_at_secs: 900,
            entries: (0..g.usize_in(0, 20))
                .map(|_| {
                    let cpus = g.u32_in(1, 64);
                    DgsplEntry {
                        hostname: g.ident(),
                        server_type: "Sun-E4500".into(),
                        os: "Solaris".into(),
                        ram_gb: g.u32_in(1, 64),
                        cpus,
                        // Quantise to the codec's 4-decimal precision.
                        compute_power: (cpus as f64 * 0.9 * 10_000.0).round() / 10_000.0,
                        app_type: "db-oracle".into(),
                        version: "8.1.7".into(),
                        load: (g.f64_in(0.0, 1.5) * 10_000.0).round() / 10_000.0,
                        users: 0,
                        location: "London".into(),
                        site: "LDN".into(),
                        service: "svc".into(),
                    }
                })
                .collect(),
        };
        let text = dgspl.to_doc().to_text();
        assert_eq!(&Dgspl::parse_text(&text).unwrap(), &dgspl);
        // Shortlist invariant: "best choice always first" — load is
        // non-decreasing along the shortlist.
        let shortlist = dgspl.shortlist("db-oracle");
        for pair in shortlist.windows(2) {
            assert!(pair[0].load <= pair[1].load + 1e-9);
        }
        // Replacement shortlist never includes under-powered hosts.
        for e in dgspl.replacement_shortlist("db-oracle", "Sun-E4500", 10.0, 16) {
            assert!(e.compute_power >= 10.0 && e.ram_gb >= 16);
        }
    });
}

#[test]
fn constraints_roundtrip_and_relax_widens() {
    cases(64, |g| {
        let vars: Vec<(String, f64, f64)> = (0..g.usize_in(1, 10))
            .map(|_| (g.ident(), g.f64_in(0.0, 1e6), g.f64_in(0.0, 1e6)))
            .collect();
        let factor = g.f64_in(1.01, 3.0);
        let mut store = ConstraintStore::new();
        for (name, a, b) in &vars {
            let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
            // Quantise to survive the 4-decimal codec.
            let lo = (lo * 100.0).round() / 100.0;
            let hi = (hi * 100.0).round() / 100.0;
            store.set(name.clone(), Bounds::between(lo, hi));
        }
        let text = store.to_doc().to_text();
        let back = ConstraintStore::from_doc(&FlatDoc::parse_text(&text).unwrap()).unwrap();
        assert_eq!(&back, &store);
        // Relaxing never tightens.
        let (name, _, _) = &vars[0];
        let before = store.get(name).unwrap();
        let after = store.relax(name, factor).unwrap();
        assert!(after.max.unwrap() >= before.max.unwrap());
        assert!(after.min.unwrap() <= before.min.unwrap());
    });
}
