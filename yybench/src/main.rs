//! `yybench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and one `name = value unit` line per metric, then the
//! result as one JSON object on the last line of standard output.

fn main() {
    let args = match yybench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("yybench: {e}");
            std::process::exit(2);
        }
    };
    let out = match yybench::run(&args, &args.workload.config(args.seed)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("yybench: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.notes {
        println!("# {line}");
    }
    for (name, unit, value) in out.table(args.trace) {
        println!("{name} = {value} {unit}");
    }
    println!("{}", out.json(args.trace));
}
