//! A fresh start declares the data segment once for the whole region: the
//! tasks are threads of one address space, so they share its bulk regions,
//! while each keeps its own control and replicated variables — and what a
//! checkpoint saves is byte for byte what a task building its own copy
//! would have saved.

use std::sync::Arc;

use drms_apps::{bt, lu, AppSpec, AppVariant, Class, MiniApp};
use drms_core::manifest::{segment_path, task_segment_path};
use drms_core::segment::{DataSegment, RegionKind};
use drms_core::{encode_segment_with_locals, CheckpointArray, Drms, EnableFlag};
use drms_msg::{run_spmd, CostModel};
use drms_piofs::{Piofs, PiofsConfig};

/// The segment a fresh start declares, built here by hand from the spec.
fn private_base_segment(spec: &AppSpec, iter: i64) -> DataSegment {
    let mut seg = DataSegment::new();
    seg.set_region("msgbuf", RegionKind::SystemBuffers, vec![0xA5; spec.system_bytes() as usize]);
    seg.set_region(
        "work-arrays",
        RegionKind::PrivateData,
        vec![0x5C; spec.private_bytes() as usize],
    );
    seg.set_replicated_f64("grid", spec.grid() as f64);
    seg.set_control("iter", iter);
    seg
}

#[test]
fn fresh_tasks_share_segment_regions_keep_own_controls_and_save_a_private_copy() {
    for (spec, variant) in [(bt(Class::T), AppVariant::Drms), (lu(Class::T), AppVariant::Spmd)] {
        let fs = Piofs::new(PiofsConfig::test_tiny(8), 3);
        Drms::install_binary(&fs, &spec.drms_config());
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let mut app =
                MiniApp::start(ctx, &fs, spec.clone(), variant, EnableFlag::new(), None).unwrap();
            let fresh = app.segment().clone();
            app.step(ctx);
            app.checkpoint(ctx, &fs, "ck/x").unwrap();
            // What this task's own copy of the fresh segment would save.
            let handles: Vec<&dyn CheckpointArray> =
                app.fields().iter().map(|f| f as &dyn CheckpointArray).collect();
            let private = private_base_segment(&spec, app.iter());
            let expected = encode_segment_with_locals(&private, &handles, spec.fixed_local_bytes());
            (fresh, app.segment().clone(), expected)
        })
        .unwrap();

        let (rank0, _, _) = &out[0];
        for (rank, (fresh, stepped, expected)) in out.iter().enumerate() {
            assert_eq!(fresh.regions.len(), 2, "msgbuf and work-arrays");
            for (a, b) in rank0.regions.iter().zip(&fresh.regions) {
                assert!(
                    Arc::ptr_eq(a, b),
                    "{} {variant:?}: rank {rank} copied {}",
                    spec.name,
                    a.name
                );
            }
            // Stepping wrote each task's own control map, nothing shared:
            // not the regions, not the fresh clone, not a sibling's count.
            assert!(stepped.regions.iter().zip(&fresh.regions).all(|(a, b)| Arc::ptr_eq(a, b)));
            assert_eq!((fresh.control("iter"), stepped.control("iter")), (Some(0), Some(1)));
            let file = match variant {
                AppVariant::Drms if rank == 0 => segment_path("ck/x"),
                AppVariant::Drms => continue,
                AppVariant::Spmd => task_segment_path("ck/x", rank),
            };
            assert!(fs.peek(&file).unwrap() == *expected, "{} {variant:?}: {file}", spec.name);
        }
    }
}
