//! Dynamic resource management with system-initiated checkpoints
//! (paper, Section 4, usage 2): the scheduler raises the enabling-checkpoint
//! signal, the application checkpoints at its next SOP
//! (`drms_reconfig_chkenable`), and the JSA reincarnates it on a *larger*
//! processor pool as machines free up.
//!
//! ```text
//! cargo run --release --example scheduler_reconfig
//! ```

use std::sync::Arc;

use drms::core::segment::DataSegment;
use drms::core::{Drms, DrmsConfig, EnableFlag};
use drms::darray::{DistArray, Distribution};
use drms::msg::CostModel;
use drms::piofs::{Piofs, PiofsConfig};
use drms::rtenv::{EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, KillToken, ResourceCoordinator};
use drms::slices::{Order, Slice};

fn main() {
    let log = EventLog::new();
    let rc = Arc::new(ResourceCoordinator::new(8, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(8), 3);
    let cfg = DrmsConfig::new("spectral");
    Drms::install_binary(&fs, &cfg);

    // Half the machine is busy with another job at submission time.
    let other = KillToken::new();
    rc.form_pool("other-job", &[4, 5, 6, 7], other.clone());

    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log.clone(),
        CostModel::default(),
        JsaPolicy::default(),
    );

    let domain = Slice::boxed(&[(0, 47), (0, 47)]);
    let rc2 = Arc::clone(&rc);
    let other2 = other.clone();
    let enable = EnableFlag::new();
    let enable_for_job = enable.clone();

    let job = JobSpec::new("spectral", (2, 8), move |ctx, env| {
        let dist = Distribution::block_auto(&domain, ctx.ntasks(), 0).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new("spectral"), &mut [&mut u])
        {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] - p[1]) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        if ctx.rank() == 0 {
            println!(
                "  [app] incarnation {} on {} tasks, starting at iteration {start_iter}",
                env.incarnation,
                ctx.ntasks()
            );
        }

        for iter in start_iter..=10 {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 0.25).unwrap();
            });
            seg.set_control("iter", iter);

            // SOP: offer the system a checkpoint opportunity. It is taken
            // only when the scheduler has raised the enable signal.
            let taken = drms
                .reconfig_chkenable(ctx, &env.fs, &format!("ck/spectral/{iter}"), &seg, &[&u])
                .unwrap();
            if taken.is_some() && ctx.rank() == 0 {
                println!("  [app] system-enabled checkpoint taken at iteration {iter}");
            }

            // At iteration 4 of the first incarnation, the other job ends
            // and the scheduler decides to grow this one: it raises the
            // enable signal, waits for the checkpoint, then preempts.
            if env.incarnation == 0 && ctx.rank() == 0 {
                if iter == 3 {
                    println!("  [jsa] other job finished; requesting enabling checkpoint");
                    other2.kill("completed");
                    rc2.release_pool("other-job");
                    env.enable.raise();
                } else if iter == 4 {
                    println!("  [jsa] preempting to relaunch on the full machine");
                    env.kill.kill("preempted for expansion");
                }
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        JobOutcome::Completed
    });

    println!("submitting job; only 4 of 8 processors are free ...");
    let summary = jsa.run_job_with_enable(&job, enable_for_job);
    let _ = enable;

    println!("\nincarnation history:");
    for (i, inc) in summary.incarnations.iter().enumerate() {
        println!("  #{i}: {} tasks from {:?} -> {:?}", inc.ntasks, inc.restart_from, inc.outcome);
    }
    assert!(summary.completed);
    assert_eq!(summary.incarnations[0].ntasks, 4, "starts on the free half");
    assert_eq!(summary.incarnations[1].ntasks, 8, "expands to the full machine");
    println!("\nOK: the job grew from 4 to 8 processors through a checkpoint.");
}
