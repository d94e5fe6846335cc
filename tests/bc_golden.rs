//! Golden-output tests for `xtuml bc` — the register bytecode every
//! engine executes, lowered from each model's state actions.
//!
//! Each golden under `tests/golden/bc_*.txt` pins the full disassembly
//! byte-for-byte: instruction selection, operands, fuel, register and
//! pool sizes, and the lowered/not-lowered tally. A change to the
//! lowering that moves any instruction fails here. Regenerate a golden
//! by running `xtuml bc <model>` and committing the new output — after
//! reading the diff.

use xtuml::cli::cmd_bc;

#[test]
fn models_match_their_bc_goldens() {
    for (name, model, golden) in [
        (
            "doorbell",
            include_str!("../models/doorbell.xtuml"),
            include_str!("golden/bc_doorbell.txt"),
        ),
        (
            "elevator",
            include_str!("../models/elevator.xtuml"),
            include_str!("golden/bc_elevator.txt"),
        ),
        (
            "seed2",
            include_str!("../models/fuzz-corpus/seed2.xtuml"),
            include_str!("golden/bc_seed2.txt"),
        ),
        (
            "seed5",
            include_str!("../models/fuzz-corpus/seed5.xtuml"),
            include_str!("golden/bc_seed5.txt"),
        ),
    ] {
        let out = cmd_bc(model).expect("model parses");
        assert_eq!(out, golden, "bc golden drifted: {name}");
    }
}
