//! VHDL generation for the hardware partition.
//!
//! Emits one design file in the style a hardware-targeting xtUML model
//! compiler would produce: a package with channel/opcode constants derived
//! from the shared interface spec, one entity per hardware class (state
//! register + event FIFO + a clocked FSM process whose action bodies are
//! translated statement-by-statement), and the bridge register-file entity
//! with the same address map the generated C driver uses.
//!
//! As with the C side, the text is validated by golden tests and size
//! metrics; nothing executes it, since no VHDL simulator is available. Its
//! executable twin is the hardware partition ([`crate::hw`]): clocked FSMs
//! from the same lowering, with the same state encoding, FIFO depths and
//! channel table.

use crate::compiler::PlatformParams;
use crate::interface::InterfaceSpec;
use crate::partition::{Partition, Side};
use std::fmt::Write as _;
use xtuml_core::action::{Block, Expr, GenTarget, LValue, Stmt};
use xtuml_core::ids::ClassId;
use xtuml_core::model::{Class, Domain, TransitionTarget};
use xtuml_core::value::{BinOp, DataType, UnOp, Value};
use xtuml_cosim::RegisterFile;

fn v_type(ty: DataType) -> &'static str {
    match ty {
        DataType::Bool => "std_logic",
        DataType::Int => "signed(63 downto 0)",
        DataType::Real => "real",
        // Strings and references degrade to ids; strings cannot cross the
        // boundary and hardware-local strings are a mapping error the
        // compiler rejects earlier.
        DataType::Str => "string",
        DataType::Inst(_) => "unsigned(31 downto 0)",
        DataType::Set(_) => "inst_set_t",
    }
}

fn v_literal(v: &Value) -> String {
    match v {
        Value::Bool(b) => if *b { "'1'" } else { "'0'" }.to_owned(),
        Value::Int(i) => format!("to_signed({i}, 64)"),
        Value::Real(r) => format!("{r:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Inst(..) => "NO_INST".to_owned(),
        Value::Set(..) => "EMPTY_SET".to_owned(),
    }
}

fn v_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(v) => v_literal(v),
        Expr::Var(n) => format!("v_{n}"),
        Expr::SelfRef => "self_id".to_owned(),
        Expr::Selected => "sel_id".to_owned(),
        Expr::Param(n) => format!("evt_{n}"),
        Expr::Attr(base, n) => match base.as_ref() {
            Expr::SelfRef => format!("r_{n}"),
            other => format!("attr_read({}, A_{n})", v_expr(other)),
        },
        Expr::Nav(base, class, assoc) => {
            format!("nav({}, C_{class}, {assoc})", v_expr(base))
        }
        Expr::Unary(op, e) => match op {
            UnOp::Neg => format!("(-{})", v_expr(e)),
            UnOp::Not => format!("(not {})", v_expr(e)),
            UnOp::Cardinality => format!("set_size({})", v_expr(e)),
            UnOp::Empty => format!("set_empty({})", v_expr(e)),
            UnOp::NotEmpty => format!("(not set_empty({}))", v_expr(e)),
            UnOp::Any => format!("set_first({})", v_expr(e)),
            UnOp::ToInt => format!("to_int({})", v_expr(e)),
            UnOp::ToReal => format!("to_real({})", v_expr(e)),
            UnOp::ToStr => format!("to_string({})", v_expr(e)),
        },
        Expr::Binary(op, a, b) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "mod",
                BinOp::Eq => "=",
                BinOp::Ne => "/=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "and",
                BinOp::Or => "or",
            };
            format!("({} {o} {})", v_expr(a), v_expr(b))
        }
        Expr::BridgeCall(actor, func, args) => {
            let mut s = format!("bridge_{actor}_{func}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&v_expr(a));
            }
            s.push(')');
            s
        }
    }
}

fn v_block(out: &mut String, block: &Block, indent: usize) {
    for stmt in &block.stmts {
        v_stmt(out, stmt, indent);
    }
}

fn v_stmt(out: &mut String, stmt: &Stmt, indent: usize) {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Assign { lhs, expr, .. } => {
            let l = match lhs {
                LValue::Var(n) => format!("v_{n}"),
                LValue::Attr(base, n) => match base {
                    Expr::SelfRef => format!("r_{n}"),
                    other => format!("attr_slot({}, A_{n})", v_expr(other)),
                },
            };
            let _ = writeln!(out, "{pad}{l} := {};", v_expr(expr));
        }
        Stmt::Create { var, class, .. } => {
            // Hardware populations are static; a runtime create in a
            // hardware class allocates from the pre-provisioned pool.
            let _ = writeln!(out, "{pad}v_{var} := pool_alloc(C_{class});");
        }
        Stmt::Delete { expr, .. } => {
            let _ = writeln!(out, "{pad}pool_free({});", v_expr(expr));
        }
        Stmt::SelectAny {
            var, class, filter, ..
        } => {
            let f = filter.as_ref().map_or("ALWAYS".to_owned(), v_expr);
            let _ = writeln!(out, "{pad}v_{var} := select_any(C_{class}, {f});");
        }
        Stmt::SelectMany {
            var, class, filter, ..
        } => {
            let f = filter.as_ref().map_or("ALWAYS".to_owned(), v_expr);
            let _ = writeln!(out, "{pad}v_{var} := select_many(C_{class}, {f});");
        }
        Stmt::Relate { a, b, assoc, .. } => {
            let _ = writeln!(out, "{pad}link({}, {}, {assoc});", v_expr(a), v_expr(b));
        }
        Stmt::Unrelate { a, b, assoc, .. } => {
            let _ = writeln!(out, "{pad}unlink({}, {}, {assoc});", v_expr(a), v_expr(b));
        }
        Stmt::Generate {
            event,
            args,
            target,
            delay,
            ..
        } => {
            let args_s: Vec<String> = args.iter().map(v_expr).collect();
            let payload = if args_s.is_empty() {
                "(others => (others => '0'))".to_owned()
            } else {
                format!("pack({})", args_s.join(", "))
            };
            match (target, delay) {
                (GenTarget::Actor(a), _) => {
                    let _ = writeln!(out, "{pad}actor_{a}_{event} <= '1';");
                    if !args_s.is_empty() {
                        let _ = writeln!(
                            out,
                            "{pad}actor_{a}_{event}_data <= {};",
                            args_s.join(" & ")
                        );
                    }
                }
                (GenTarget::Inst(t), None) => {
                    let _ = writeln!(out, "{pad}emit_event(E_{event}, {}, {payload});", v_expr(t));
                }
                (GenTarget::Inst(t), Some(d)) => {
                    let _ = writeln!(
                        out,
                        "{pad}arm_timer(E_{event}, {}, {} * CYCLES_PER_UNIT, {payload});",
                        v_expr(t),
                        v_expr(d)
                    );
                }
            }
        }
        Stmt::Cancel { event, .. } => {
            let _ = writeln!(out, "{pad}cancel_timer(E_{event}, self_id);");
        }
        Stmt::If {
            arms, otherwise, ..
        } => {
            for (i, (cond, body)) in arms.iter().enumerate() {
                let kw = if i == 0 { "if" } else { "elsif" };
                let _ = writeln!(out, "{pad}{kw} {} then", v_expr(cond));
                v_block(out, body, indent + 1);
            }
            if let Some(body) = otherwise {
                let _ = writeln!(out, "{pad}else");
                v_block(out, body, indent + 1);
            }
            let _ = writeln!(out, "{pad}end if;");
        }
        Stmt::While { cond, body, .. } => {
            let _ = writeln!(out, "{pad}while {} loop", v_expr(cond));
            v_block(out, body, indent + 1);
            let _ = writeln!(out, "{pad}end loop;");
        }
        Stmt::ForEach { var, set, body, .. } => {
            let _ = writeln!(out, "{pad}for v_{var} in set_iter({}) loop", v_expr(set));
            v_block(out, body, indent + 1);
            let _ = writeln!(out, "{pad}end loop;");
        }
        Stmt::Break { .. } => {
            let _ = writeln!(out, "{pad}exit;");
        }
        Stmt::Continue { .. } => {
            let _ = writeln!(out, "{pad}next;");
        }
        Stmt::Return { .. } => {
            let _ = writeln!(out, "{pad}return;");
        }
        Stmt::ExprStmt { expr, .. } => {
            let _ = writeln!(out, "{pad}dummy := {};", v_expr(expr));
        }
    }
}

fn gen_entity(out: &mut String, class: &Class, params: &PlatformParams, class_id: ClassId) {
    let depth = params
        .class_depth
        .get(&class_id)
        .copied()
        .unwrap_or(params.default_depth);
    let _ = writeln!(out, "-- ---- class {} ----", class.name);
    let _ = writeln!(out, "entity {}_fsm is", class.name);
    let _ = writeln!(out, "    generic (QUEUE_DEPTH : positive := {depth});");
    let _ = writeln!(out, "    port (");
    let _ = writeln!(out, "        clk        : in  std_logic;");
    let _ = writeln!(out, "        rst_n      : in  std_logic;");
    let _ = writeln!(out, "        evt_valid  : in  std_logic;");
    let _ = writeln!(out, "        evt_kind   : in  event_kind_t;");
    let _ = writeln!(out, "        evt_data   : in  payload_t;");
    let _ = writeln!(out, "        evt_ready  : out std_logic;");
    let _ = writeln!(out, "        out_valid  : out std_logic;");
    let _ = writeln!(out, "        out_kind   : out event_kind_t;");
    let _ = writeln!(out, "        out_data   : out payload_t");
    let _ = writeln!(out, "    );");
    let _ = writeln!(out, "end entity;\n");

    let _ = writeln!(out, "architecture rtl of {}_fsm is", class.name);
    let Some(machine) = &class.state_machine else {
        let _ = writeln!(out, "begin\nend architecture;\n");
        return;
    };
    let states: Vec<String> = machine
        .states
        .iter()
        .map(|s| format!("S_{}", s.name))
        .collect();
    let _ = writeln!(out, "    type state_t is ({});", states.join(", "));
    let _ = writeln!(
        out,
        "    signal state : state_t := S_{};",
        machine.state(machine.initial).name
    );
    for a in &class.attributes {
        let _ = writeln!(out, "    signal r_{} : {};", a.name, v_type(a.ty));
    }
    let _ = writeln!(out, "begin");
    let _ = writeln!(out, "    fsm : process (clk)");
    let _ = writeln!(out, "    begin");
    let _ = writeln!(out, "        if rising_edge(clk) then");
    let _ = writeln!(out, "            if rst_n = '0' then");
    let _ = writeln!(
        out,
        "                state <= S_{};",
        machine.state(machine.initial).name
    );
    let _ = writeln!(out, "            elsif evt_valid = '1' then");
    let _ = writeln!(out, "                case state is");
    for (si, s) in machine.states.iter().enumerate() {
        let _ = writeln!(out, "                when S_{} =>", s.name);
        let _ = writeln!(out, "                    case evt_kind is");
        let mut any = false;
        for t in &machine.transitions {
            if t.from.index() != si {
                continue;
            }
            any = true;
            let ev = &class.events[t.event.index()].name;
            match t.target {
                TransitionTarget::To(to) => {
                    let to_s = &machine.state(to).name;
                    let _ = writeln!(out, "                    when E_{ev} =>");
                    let _ = writeln!(out, "                        state <= S_{to_s};");
                    let _ = writeln!(out, "                        -- entry actions of {to_s}:");
                    let mut body = String::new();
                    v_block(&mut body, &machine.state(to).action, 6);
                    out.push_str(&body);
                }
                TransitionTarget::Ignore => {
                    let _ = writeln!(out, "                    when E_{ev} => null; -- ignore");
                }
                TransitionTarget::CantHappen => {}
            }
        }
        // Undeclared (state, event) pairs are specification errors.
        let _ = any;
        let _ = writeln!(out, "                    when others => cant_happen;");
        let _ = writeln!(out, "                    end case;");
    }
    let _ = writeln!(out, "                end case;");
    let _ = writeln!(out, "            end if;");
    let _ = writeln!(out, "        end if;");
    let _ = writeln!(out, "    end process;");
    let _ = writeln!(out, "end architecture;\n");
}

fn gen_bridge(out: &mut String, domain: &Domain, iface: &InterfaceSpec) {
    let _ = writeln!(
        out,
        "-- ==== GENERATED BRIDGE REGISTER FILE — single source: interface spec ===="
    );
    let _ = writeln!(out, "entity xtuml_bridge is");
    let _ = writeln!(out, "    port (");
    let _ = writeln!(out, "        clk     : in  std_logic;");
    let _ = writeln!(out, "        rst_n   : in  std_logic;");
    let _ = writeln!(out, "        bus_addr  : in  unsigned(11 downto 0);");
    let _ = writeln!(
        out,
        "        bus_wdata : in  std_logic_vector(31 downto 0);"
    );
    let _ = writeln!(out, "        bus_we    : in  std_logic;");
    let _ = writeln!(out, "        bus_rdata : out std_logic_vector(31 downto 0)");
    let _ = writeln!(out, "    );");
    let _ = writeln!(out, "end entity;\n");
    let _ = writeln!(out, "architecture rtl of xtuml_bridge is");
    for ch in &iface.channels {
        let class = &domain.class(ch.target_class).name;
        let event = &domain.class(ch.target_class).events[ch.event.index()].name;
        let _ = writeln!(
            out,
            "    constant CH_{class}_{event} : natural := {}; -- {} , {} word(s)",
            ch.id, ch.dir, ch.payload_words
        );
        if ch.dir == xtuml_cosim::Direction::SwToHw {
            for w in 0..ch.payload_words {
                let _ = writeln!(
                    out,
                    "    constant ADDR_{class}_{event}_W{w} : natural := 16#{:03X}#;",
                    RegisterFile::tx_data_addr(ch.id, w)
                );
            }
            let _ = writeln!(
                out,
                "    constant ADDR_{class}_{event}_BELL : natural := 16#{:03X}#;",
                RegisterFile::tx_doorbell_addr(ch.id)
            );
        }
    }
    let _ = writeln!(out, "    constant ADDR_RX_STATUS  : natural := 16#100#;");
    let _ = writeln!(out, "    constant ADDR_RX_CHANNEL : natural := 16#101#;");
    let _ = writeln!(out, "    constant ADDR_RX_DATA0   : natural := 16#102#;");
    let _ = writeln!(out, "    constant ADDR_RX_POP     : natural := 16#10F#;");
    let _ = writeln!(out, "begin");
    let _ = writeln!(out, "    -- Doorbell decode, RX FIFO head mux, etc.");
    let _ = writeln!(out, "end architecture;\n");
}

/// Generates the hardware partition's VHDL design file.
pub fn generate_vhdl(
    domain: &Domain,
    partition: &Partition,
    iface: &InterfaceSpec,
    params: &PlatformParams,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- Generated by the xtuml model compiler — DO NOT EDIT.\n\
         -- Domain: {}\n\
         -- Hardware partition ({} class(es)); clock {} kHz.",
        domain.name,
        partition.hw_count(),
        params.hw_khz
    );
    out.push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n");

    // Shared package: event kinds, channels, timing.
    let _ = writeln!(out, "package xtuml_pkg is");
    let _ = writeln!(
        out,
        "    constant CYCLES_PER_UNIT : natural := {};",
        params.cycles_per_unit
    );
    for (ci, class) in domain.classes.iter().enumerate() {
        let _ = writeln!(out, "    constant C_{} : natural := {};", class.name, ci);
        if partition.side(ClassId::new(ci as u32)) == Side::Hw {
            for e in &class.events {
                let _ = writeln!(out, "    -- event E_{} of {}", e.name, class.name);
            }
        }
    }
    let _ = writeln!(out, "end package;\n");

    for (ci, class) in domain.classes.iter().enumerate() {
        let id = ClassId::new(ci as u32);
        if partition.side(id) == Side::Hw {
            gen_entity(&mut out, class, params, id);
        }
    }

    gen_bridge(&mut out, domain, iface);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtuml_core::builder::DomainBuilder;
    use xtuml_core::marks::MarkSet;
    use xtuml_core::model::Multiplicity;

    /// The VHDL of a two-class design with its filter in hardware.
    fn split_vhdl() -> String {
        let mut b = DomainBuilder::new("vg");
        b.class("Ctrl")
            .event("Kick", &[])
            .state("I", "")
            .state("R", "f = any(self -> Filt[R1]); gen Work(2) to f;")
            .initial("I")
            .transition("I", "Kick", "R")
            .transition("R", "Kick", "R");
        b.class("Filt")
            .attr("acc", DataType::Int)
            .event("Work", &[("n", DataType::Int)])
            .state("W", "")
            .state(
                "X",
                "self.acc = self.acc + rcvd.n;\n\
                 if (self.acc > 10) { self.acc = 0; }\n\
                 gen Work(1) to self after 5;",
            )
            .initial("W")
            .transition("W", "Work", "X")
            .transition("X", "Work", "X");
        b.association("R1", "Ctrl", Multiplicity::One, "Filt", Multiplicity::One);
        let domain = b.build().unwrap();
        let mut m = MarkSet::new();
        m.mark_hardware("Filt");
        crate::ModelCompiler::new()
            .compile(&domain, &m)
            .unwrap()
            .vhdl_code
    }

    #[test]
    fn vhdl_has_package_entity_and_fsm() {
        let v = split_vhdl();
        assert!(v.contains("package xtuml_pkg is"));
        assert!(v.contains("entity Filt_fsm is"));
        assert!(v.contains("architecture rtl of Filt_fsm is"));
        assert!(v.contains("type state_t is (S_W, S_X);"));
        assert!(v.contains("signal r_acc : signed(63 downto 0);"));
        assert!(v.contains("if rising_edge(clk) then"));
        assert!(v.contains("when E_Work =>"));
        assert!(v.contains("state <= S_X;"));
    }

    #[test]
    fn software_classes_get_no_entity() {
        let v = split_vhdl();
        assert!(!v.contains("entity Ctrl_fsm"));
    }

    #[test]
    fn actions_translate_to_vhdl() {
        let v = split_vhdl();
        assert!(v.contains("r_acc := (r_acc + evt_n);"));
        assert!(v.contains("if (r_acc > to_signed(10, 64)) then"));
        assert!(v.contains("arm_timer(E_Work, self_id, to_signed(5, 64) * CYCLES_PER_UNIT"));
        assert!(v.contains("end if;"));
    }

    #[test]
    fn bridge_entity_mirrors_register_map() {
        let v = split_vhdl();
        assert!(v.contains("entity xtuml_bridge is"));
        assert!(v.contains("constant ADDR_RX_STATUS  : natural := 16#100#;"));
        // Channel for sw→hw Filt.Work has TX registers.
        assert!(v.contains("ADDR_Filt_Work_W0"));
        assert!(v.contains("ADDR_Filt_Work_BELL"));
    }

    #[test]
    fn queue_depth_mark_becomes_generic() {
        let mut b = DomainBuilder::new("qd");
        b.class("H")
            .event("E", &[])
            .state("S", "")
            .initial("S")
            .transition("S", "E", "S");
        let domain = b.build().unwrap();
        let mut m = MarkSet::new();
        m.mark_hardware("H");
        m.set(
            xtuml_core::marks::ElemRef::class("H"),
            xtuml_core::marks::keys::QUEUE_DEPTH,
            3i64,
        );
        let design = crate::ModelCompiler::new().compile(&domain, &m).unwrap();
        assert!(design
            .vhdl_code
            .contains("generic (QUEUE_DEPTH : positive := 3);"));
    }
}
