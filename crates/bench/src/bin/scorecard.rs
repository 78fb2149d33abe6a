//! The paper scorecard ([`gevo_bench::scorecard`]) as markdown tables,
//! one per EXPERIMENTS.md section.

use gevo_bench::scorecard::rows;

fn main() {
    let mut section = "";
    for row in rows() {
        if row.section != section {
            section = row.section;
            println!(
                "\n## {section}\n\n| experiment | paper | measured | shape |\n|---|---|---|---|"
            );
        }
        println!("{}", row.markdown());
    }
}
