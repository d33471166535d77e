//! `strato-servebench --workload <ingest|join|plan> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints notes, then one JSON result line. Exits 1 when any response was
//! wrong (after printing the result), 2 when the run could not be made.
//! `--scale tiny` shrinks the inputs (for the self-check); `--leg <i>` is
//! how an untraced run starts its legs: it prints one leg's line only.

use strato_servebench::{leg, run, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: --workload <ingest|join|plan> --seed <n> --seconds <n> --trace <0|1> \
                 [--scale <full|tiny>]"
            );
            std::process::exit(2);
        }
    };
    if args.leg.is_some() {
        // A leg inherits its parent's spill directory (`TMPDIR`), which the
        // parent removes.
        match leg(&args) {
            Ok(l) => println!("{}", l.json()),
            Err(e) => {
                eprintln!("servebench leg: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    // Spill files go under the working directory, not the system temp
    // dir. Set before any thread starts, while the process is single
    // threaded.
    let tmp = std::env::current_dir()
        .map(|d| d.join(".servebench-tmp"))
        .and_then(|d| std::fs::create_dir_all(&d).map(|_| d));
    let tmp = match tmp {
        Ok(d) => d,
        Err(e) => {
            eprintln!("servebench: cannot create the spill directory: {e}");
            std::process::exit(2);
        }
    };
    std::env::set_var("TMPDIR", &tmp);

    let result = std::env::current_exe()
        .map_err(|e| format!("cannot find this program's path: {e}"))
        .and_then(|exe| run(&args, &exe));
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            for (name, value, unit) in &outcome.metrics {
                println!("{name} = {value} {unit}");
            }
            println!("{}", outcome.json());
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}
