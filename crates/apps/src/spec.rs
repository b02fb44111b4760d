//! Application specifications: field inventory and memory anatomy.
//!
//! The numbers target Table 4 of the paper at class A (bytes, paper /
//! this implementation):
//!
//! | app | total data | local sections | system | private/replicated |
//! |-----|-----------:|---------------:|-------:|-------------------:|
//! | BT  | 65,982,468 | 25,635,456     | 34,972,228 | 5,374,784      |
//! | LU  | 89,169,924 | 10,061,824     | 34,972,228 | 44,134,872     |
//! | SP  | 55,242,756 | 14,648,832     | 34,972,228 | 5,621,696      |
//!
//! The field inventories are chosen so the distributed-array streams also
//! land on Table 3 (BT 84, LU 34, SP 48 paper-MB): BT declares its big
//! work arrays distributed (8 five-component fields), LU keeps them private
//! (3 five-component fields + fluxes, with a 44 MB private region), SP sits
//! in between (4 five-component + 3 scalar fields).

use std::sync::Arc;

use drms_core::DrmsConfig;
use drms_darray::{factorize, Distribution};
use drms_slices::Slice;

use crate::Class;

/// One distributed field of the application.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    /// Field name (keys the checkpoint stream).
    pub name: String,
    /// Number of solution components (5 for the NPB systems, 1 for
    /// scalar fields).
    pub components: usize,
}

/// Static description of a mini-application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (`"bt"`, `"lu"`, `"sp"`).
    pub name: &'static str,
    /// Problem class.
    pub class: Class,
    /// Distributed fields.
    pub fields: Vec<FieldSpec>,
    /// How many spatial axes the decomposition splits (LU uses 2, BT and
    /// SP use 3).
    pub decomp_axes: usize,
    /// Shadow width (elements) on split axes.
    pub shadow: usize,
    /// Private/replicated bulk data per task, class-A bytes.
    pub private_bytes_class_a: u64,
    /// System (message-buffer) residency per task, class-A bytes.
    pub system_bytes_class_a: u64,
    /// Minimum task count the application compiles for; local-section
    /// storage is fixed at this size.
    pub min_tasks: usize,
}

/// The BT mini-application.
pub fn bt(class: Class) -> AppSpec {
    AppSpec {
        name: "bt",
        class,
        fields: (0..8)
            .map(|i| FieldSpec {
                name: ["u", "rhs", "forcing", "lhsa", "lhsb", "lhsc", "fjac", "njac"][i].into(),
                components: 5,
            })
            .collect(),
        decomp_axes: 3,
        shadow: 3,
        private_bytes_class_a: 5_374_784,
        system_bytes_class_a: 34_972_228,
        min_tasks: 4,
    }
}

/// The LU mini-application (work arrays private, hence the large
/// private/replicated region).
pub fn lu(class: Class) -> AppSpec {
    AppSpec {
        name: "lu",
        class,
        fields: vec![
            FieldSpec { name: "u".into(), components: 5 },
            FieldSpec { name: "rsd".into(), components: 5 },
            FieldSpec { name: "frct".into(), components: 5 },
            FieldSpec { name: "flux".into(), components: 1 },
        ],
        decomp_axes: 2,
        shadow: 2,
        private_bytes_class_a: 44_134_872,
        system_bytes_class_a: 34_972_228,
        min_tasks: 4,
    }
}

/// The SP mini-application.
pub fn sp(class: Class) -> AppSpec {
    AppSpec {
        name: "sp",
        class,
        fields: vec![
            FieldSpec { name: "u".into(), components: 5 },
            FieldSpec { name: "rhs".into(), components: 5 },
            FieldSpec { name: "forcing".into(), components: 5 },
            FieldSpec { name: "lhs".into(), components: 5 },
            FieldSpec { name: "rho_i".into(), components: 1 },
            FieldSpec { name: "us".into(), components: 1 },
            FieldSpec { name: "speed".into(), components: 1 },
        ],
        decomp_axes: 3,
        shadow: 2,
        private_bytes_class_a: 5_621_696,
        system_bytes_class_a: 34_972_228,
        min_tasks: 4,
    }
}

impl AppSpec {
    /// Grid edge for the class.
    pub fn grid(&self) -> usize {
        self.class.grid()
    }

    /// The global domain of a field: component axis plus three spatial
    /// axes of the class grid.
    pub fn domain(&self, components: usize) -> Slice {
        let n = self.grid() as i64;
        Slice::boxed(&[(0, components as i64 - 1), (1, n), (1, n), (1, n)])
    }

    /// Processor-grid parts for `ntasks`: component axis undivided, spatial
    /// axes split per the decomposition style.
    pub fn parts(&self, ntasks: usize) -> Vec<usize> {
        let n = self.grid();
        let spatial = match self.decomp_axes {
            2 => {
                let f = factorize(ntasks, &[n, n]);
                vec![f[0], f[1], 1]
            }
            _ => {
                let f = factorize(ntasks, &[n, n, n]);
                vec![f[0], f[1], f[2]]
            }
        };
        let mut parts = vec![1];
        parts.extend(spatial);
        parts
    }

    /// The block distribution of field `f` on `ntasks` tasks.
    pub fn dist(&self, field: &FieldSpec, ntasks: usize) -> Arc<Distribution> {
        let domain = self.domain(field.components);
        let parts = self.parts(ntasks);
        let shadow = vec![0, self.shadow, self.shadow, self.shadow];
        Distribution::block(&domain, &parts, &shadow).expect("valid app decomposition")
    }

    /// Private/replicated bytes, scaled to the class.
    pub fn private_bytes(&self) -> u64 {
        scale(self.private_bytes_class_a, self.class)
    }

    /// System-buffer bytes, scaled to the class.
    pub fn system_bytes(&self) -> u64 {
        scale(self.system_bytes_class_a, self.class)
    }

    /// Local-section storage fixed at compile time: the mapped storage of a
    /// representative task when running on the minimum task count.
    pub fn fixed_local_bytes(&self) -> u64 {
        self.fields.iter().map(|f| self.dist(f, self.min_tasks).mapped(0).size() as u64 * 8).sum()
    }

    /// Total bytes of all distribution-independent field streams (the
    /// "array" column of Table 3).
    pub fn stream_bytes(&self) -> u64 {
        self.fields.iter().map(|f| self.domain(f.components).size() as u64 * 8).sum()
    }

    /// Approximate per-task data-segment size (the "data" column of
    /// Table 3 / "total data" of Table 4).
    pub fn expected_segment_bytes(&self) -> u64 {
        self.fixed_local_bytes() + self.system_bytes() + self.private_bytes()
    }

    /// The DRMS configuration for this application.
    pub fn drms_config(&self) -> DrmsConfig {
        DrmsConfig {
            app: self.name.to_string(),
            text_bytes: scale(8 << 20, self.class).max(1024),
            fixed_local_bytes: self.fixed_local_bytes(),
        }
    }
}

fn scale(bytes_class_a: u64, class: Class) -> u64 {
    ((bytes_class_a as f64) * class.memory_scale()).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_a_anatomy_matches_table4_within_tolerance() {
        // (paper total data, paper local sections) per app.
        let cases = [
            (bt(Class::A), 65_982_468u64, 25_635_456u64),
            (lu(Class::A), 89_169_924, 10_061_824),
            (sp(Class::A), 55_242_756, 14_648_832),
        ];
        for (spec, paper_total, paper_local) in cases {
            let local = spec.fixed_local_bytes();
            let total = spec.expected_segment_bytes();
            let local_err = (local as f64 - paper_local as f64).abs() / paper_local as f64;
            let total_err = (total as f64 - paper_total as f64).abs() / paper_total as f64;
            assert!(
                local_err < 0.10,
                "{}: local {} vs paper {} ({:.1}% off)",
                spec.name,
                local,
                paper_local,
                local_err * 100.0
            );
            assert!(
                total_err < 0.06,
                "{}: total {} vs paper {} ({:.1}% off)",
                spec.name,
                total,
                paper_total,
                total_err * 100.0
            );
        }
    }

    #[test]
    fn class_a_streams_match_table3() {
        // Paper (SI MB): BT 84, LU 34, SP 48.
        let mb = |b: u64| b as f64 / 1e6;
        assert!((mb(bt(Class::A).stream_bytes()) - 84.0).abs() < 1.0);
        assert!((mb(lu(Class::A).stream_bytes()) - 34.0).abs() < 1.0);
        assert!((mb(sp(Class::A).stream_bytes()) - 48.0).abs() < 1.5);
    }

    #[test]
    fn lu_private_dominates_bt_and_sp() {
        assert!(lu(Class::A).private_bytes() > 7 * bt(Class::A).private_bytes());
        assert!(lu(Class::A).private_bytes() > 7 * sp(Class::A).private_bytes());
    }

    #[test]
    fn decomposition_styles() {
        let b = bt(Class::A);
        assert_eq!(b.parts(8), vec![1, 2, 2, 2]);
        let l = lu(Class::A);
        let p = l.parts(8);
        assert_eq!(p[0], 1);
        assert_eq!(p[3], 1, "LU splits two axes only");
        assert_eq!(p.iter().product::<usize>(), 8);
    }

    #[test]
    fn distributions_valid_for_many_task_counts() {
        for spec in [bt(Class::T), lu(Class::T), sp(Class::T)] {
            for p in [1usize, 2, 3, 4, 5, 6, 7, 8] {
                for f in &spec.fields {
                    let d = spec.dist(f, p);
                    assert_eq!(d.ntasks(), p);
                    let covered: usize = (0..p).map(|t| d.assigned(t).size()).sum();
                    assert_eq!(covered, spec.domain(f.components).size());
                }
            }
        }
    }

    #[test]
    fn memory_scales_with_class() {
        let a = bt(Class::A);
        let w = bt(Class::W);
        assert!((w.system_bytes() as f64 / a.system_bytes() as f64 - 0.125).abs() < 1e-3);
        assert_eq!(w.stream_bytes(), a.stream_bytes() / 8);
    }
}
