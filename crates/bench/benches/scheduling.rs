//! Criterion micro-benchmarks for the batch-scheduling path: the lazy
//! candidate view, policy selection over 100 database servers, and the
//! dispatch loop itself.

use std::collections::BTreeMap;

use intelliqos_bench::{black_box, criterion_group, criterion_main, Criterion};

use intelliqos_cluster::hardware::ServerModel;
use intelliqos_cluster::ids::{ServerId, Site};
use intelliqos_cluster::server::Server;
use intelliqos_core::DgsplSelector;
use intelliqos_lsf::cluster::LsfCluster;
use intelliqos_lsf::job::{Job, JobId, JobKind, JobSpec};
use intelliqos_lsf::select::{LeastLoadedSelector, ManualStickySelector, ServerSelector};
use intelliqos_ontology::dgspl::{Dgspl, DgsplEntry};
use intelliqos_simkern::{SimRng, SimTime};

fn servers(n: u32) -> BTreeMap<ServerId, Server> {
    (0..n)
        .map(|i| {
            let model = if i % 10 < 7 {
                ServerModel::SunE4500
            } else {
                ServerModel::SunE10k
            };
            (
                ServerId(i),
                Server::new(
                    ServerId(i),
                    format!("db{i:03}"),
                    model.default_spec(),
                    Site::new("London", "LDN-DC1"),
                ),
            )
        })
        .collect()
}

fn dgspl(n: u32) -> Dgspl {
    Dgspl {
        generated_at_secs: 900,
        entries: (0..n)
            .map(|i| DgsplEntry {
                hostname: format!("db{i:03}"),
                server_type: "Sun-E4500".into(),
                os: "Solaris".into(),
                ram_gb: 8,
                cpus: 8,
                compute_power: 7.2,
                app_type: "db-oracle".into(),
                version: "8.1.7".into(),
                load: (i % 17) as f64 / 17.0,
                users: 0,
                location: "London".into(),
                site: "LDN".into(),
                service: format!("db-{i}"),
            })
            .collect(),
    }
}

fn bench_selectors(c: &mut Criterion) {
    let srv = servers(100);
    let lsf = LsfCluster::new(srv.keys().copied().collect(), 3);
    let cands = lsf.candidates(&srv, &|_| true);
    let job = Job::new(
        JobId(0),
        JobSpec::defaults_for(JobKind::DataMining, "analyst07"),
        SimTime::ZERO,
    );
    c.bench_function("select/manual_sticky_100", |b| {
        let mut sel = ManualStickySelector::new(SimRng::stream(1, "m"));
        b.iter(|| black_box(sel.select(&job, &cands)))
    });
    c.bench_function("select/least_loaded_100", |b| {
        b.iter(|| black_box(LeastLoadedSelector.select(&job, &cands)))
    });
    c.bench_function("select/dgspl_shortlist_100", |b| {
        let host_ids: BTreeMap<String, ServerId> =
            srv.values().map(|s| (s.hostname.clone(), s.id)).collect();
        let mut sel = DgsplSelector::new(host_ids, "db-oracle");
        sel.update(dgspl(100));
        b.iter(|| black_box(sel.select(&job, &cands)))
    });
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("dispatch/50_jobs_over_100_servers", |b| {
        b.iter(|| {
            let mut srv = servers(100);
            let mut lsf = LsfCluster::new(srv.keys().copied().collect(), 3);
            for i in 0..50 {
                lsf.submit(
                    JobSpec::defaults_for(JobKind::Report, format!("analyst{:02}", i % 20)),
                    SimTime::ZERO,
                );
            }
            let d =
                lsf.dispatch_pending(&mut LeastLoadedSelector, &mut srv, |_| true, SimTime::ZERO);
            black_box(d.len())
        })
    });
    // Every candidate of the view computed once: what a selector that
    // reads all hosts pays (the eager snapshot every dispatch used to build).
    c.bench_function("dispatch/candidates_snapshot_100", |b| {
        let srv = servers(100);
        let lsf = LsfCluster::new(srv.keys().copied().collect(), 3);
        b.iter(|| {
            let view = lsf.candidates(&srv, &|_| true);
            black_box(view.iter().filter(|c| c.accepts_jobs()).count())
        })
    });
}

criterion_group!(benches, bench_selectors, bench_dispatch);
criterion_main!(benches);
