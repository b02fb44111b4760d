//! The gated benches, as one binary: `gate <name>|--all` runs rows of
//! [`drms_bench::gate::TABLE`].

fn main() {
    drms_bench::gate::main();
}
