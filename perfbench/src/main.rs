//! `eblow-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the failures by name, the run metadata and every metric by name
//! and unit, then, as the last line, the result object.

#![forbid(unsafe_code)]

use eblow_perfbench::report::result_line;
use eblow_perfbench::{run, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("eblow-perfbench: {e}");
            eprintln!(
                "usage: eblow-perfbench --workload <oned-mcc|twod-mcc|race-deadline> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = run(options);
    for failure in &run.failures {
        println!("FAILED {failure}");
    }
    println!("{}", run.meta().render());
    let end_to_end = run.end_to_end();
    let per_layer = run.per_layer();
    for m in end_to_end.iter().chain(&per_layer) {
        println!("metric {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let reported = if options.trace {
        &per_layer
    } else {
        &end_to_end
    };
    println!(
        "{}",
        result_line(run.attempted, run.failures.len(), reported)
    );
    ExitCode::SUCCESS
}
