//! Netlist utility: inspect, optimize and cost DeepSecure netlist files.
//!
//! ```text
//! cargo run --release --example netlist_tool -- demo            # emit a sample netlist
//! cargo run --release --example netlist_tool -- stats FILE      # parse + report
//! cargo run --release --example netlist_tool -- optimize FILE   # re-optimize, print both
//! ```
//!
//! The text format is documented in `deepsecure::circuit::netlist`; it is
//! the workspace's analogue of the Bristol-fashion circuit files used by
//! the MPC community, extended with registers.

use std::fs;

use deepsecure::circuit::{netlist, passes, Builder};
use deepsecure::core::cost::CostModel;
use deepsecure::synth::{arith, word};

fn demo_netlist() -> String {
    // A deliberately unoptimized 8-bit comparator chain.
    let mut b = Builder::new();
    let x = word::garbler_word(&mut b, 8);
    let y = word::evaluator_word(&mut b, 8);
    let max = arith::max_signed(&mut b, &x, &y);
    let min = arith::min_signed(&mut b, &x, &y);
    let spread = arith::sub(&mut b, &max, &min);
    word::output_word(&mut b, &spread);
    netlist::serialize(&b.finish())
}

fn report(label: &str, c: &deepsecure::circuit::Circuit) {
    let stats = c.stats();
    let cost = CostModel::default().cost(stats);
    println!(
        "{label}: {} wires, {} gates ({} XOR-class + {} non-XOR), depth {}, non-XOR depth {}",
        c.wire_count(),
        stats.total(),
        stats.xor,
        stats.non_xor,
        passes::levelize(c).max_level(),
        passes::non_xor_depth(c),
    );
    println!(
        "       GC cost: {} bytes of tables, {:.3} ms comp, {:.3} ms exec",
        cost.comm_bytes,
        cost.comp_s * 1e3,
        cost.exec_s * 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("demo") => {
            print!("{}", demo_netlist());
        }
        Some("stats") if args.len() == 2 => {
            let text = fs::read_to_string(&args[1]).expect("read netlist file");
            let c = netlist::parse(&text).expect("parse netlist");
            report(&args[1], &c);
        }
        Some("optimize") if args.len() == 2 => {
            let text = fs::read_to_string(&args[1]).expect("read netlist file");
            let c = netlist::parse(&text).expect("parse netlist");
            report("input ", &c);
            let opt = passes::optimize(&c);
            report("output", &opt);
            print!("{}", netlist::serialize(&opt));
        }
        _ => {
            eprintln!("usage: netlist_tool demo | stats FILE | optimize FILE");
            std::process::exit(2);
        }
    }
}
