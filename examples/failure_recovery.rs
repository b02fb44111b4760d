//! Scalable recovery from a processor failure (paper, Section 4).
//!
//! An 8-processor DRMS cluster runs a solver job that checkpoints every 4
//! iterations. Mid-run, processor 5 "fails": its task coordinator dies, the
//! resource coordinator detects the lost connection, kills the application,
//! and the scheduler restarts it from the latest checkpoint on the SEVEN
//! remaining processors — without waiting for the repair.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use std::sync::Arc;

use drms::core::segment::DataSegment;
use drms::core::{Drms, DrmsConfig};
use drms::darray::{DistArray, Distribution};
use drms::msg::CostModel;
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::{EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ResourceCoordinator, Uic};
use drms::slices::{Order, Slice};

fn main() {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(8, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 7);
    let cfg = DrmsConfig::new("heat3d");
    Drms::install_binary(&fs, &cfg);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log.clone(),
        CostModel::default(),
        JsaPolicy::default(),
    );

    let domain = Slice::boxed(&[(1, 32), (1, 32)]);
    let rc_inject = Arc::clone(&rc);
    let job = JobSpec::new("heat3d", (2, 8), move |ctx, env| {
        let dist = Distribution::block_auto(&domain, ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        // `drms_initialize` plus the array reload, from whichever checkpoint
        // (if any) the scheduler resolved for this incarnation.
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new("heat3d"), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] * p[1]) as f64),
            Some(info) => {
                start_iter = info.segment.control("iter").unwrap() + 1;
                if ctx.rank() == 0 {
                    println!(
                        "  [app] resumed at iteration {start_iter} on {} tasks (delta {})",
                        ctx.ntasks(),
                        info.delta
                    );
                }
                seg = info.segment;
            }
        }

        for iter in start_iter..=12 {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v * 0.5 + 1.0).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % 4 == 0 {
                drms.reconfig_checkpoint(ctx, &env.fs, &format!("ck/heat3d/{iter}"), &seg, &[&u])
                    .unwrap();
            }
            // Disaster strikes at iteration 6 of the first incarnation.
            if env.incarnation == 0 && iter == 6 && ctx.rank() == 0 {
                println!("  [fault] processor 5 fails NOW");
                rc_inject.fail_processor(5);
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        JobOutcome::Completed
    });

    println!("submitting job on an 8-processor pool ...");
    let summary = jsa.run_job(&job);

    println!("\nincarnation history:");
    for (i, inc) in summary.incarnations.iter().enumerate() {
        println!(
            "  #{i}: {} tasks on processors {:?}, from {:?} -> {:?}",
            inc.ntasks, inc.procs, inc.restart_from, inc.outcome
        );
    }
    assert!(summary.completed);
    assert_eq!(summary.incarnations.len(), 2);
    assert_eq!(summary.incarnations[1].ntasks, 7);

    let uic = Uic::new(Arc::clone(&rc), fs, log);
    println!("\ncontrol-plane event history (UIC):");
    for line in uic.event_history() {
        println!("  {line}");
    }
    println!("\nprocessor status after recovery:");
    for line in uic.processor_status() {
        println!("  {line}");
    }
    println!("\nOK: job survived the failure and completed on 7 processors.");
}
