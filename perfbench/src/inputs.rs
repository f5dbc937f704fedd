//! Seeded inputs of the serving workloads, their expected outputs from
//! the native mirrors, and the reference bills computed once on the
//! tree-walking oracle.

use acctee::{Deployment, Level, ResourceUsageLog};
use acctee_interp::{Engine, Value};
use acctee_wasm::builder::ModuleBuilder;
use acctee_wasm::encode::encode_module;
use acctee_wasm::types::ValType;
use acctee_workloads::{darknet, faas_fns, polybench};

use crate::common::{draw, same_values, ATTEST_SEED};

/// PolyBench `gemm` problem size.
const GEMM_N: usize = 32;
/// Darknet input edge.
const DARKNET_S: usize = 24;
/// Resize input edge.
const IMAGE_EDGE: usize = 128;
/// Distinct darknet variants and images per seed.
const VARIANTS: u64 = 4;
const IMAGES: u64 = 2;
/// Requests per balanced block of the compute mix (two of each module).
pub const COMPUTE_BLOCK: u64 = 6;

/// A deployable module.
#[derive(Debug, Clone)]
pub struct Module {
    pub name: &'static str,
    pub bytes: Vec<u8>,
    pub func: &'static str,
}

/// What a correct response carries.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The returned values, bit for bit.
    Results(Vec<Value>),
    /// The bytes the function wrote out.
    Output(Vec<u8>),
}

/// A distinct input: one reference bill is computed per class.
#[derive(Debug, Clone)]
pub struct Class {
    pub module: usize,
    pub args: Vec<Value>,
    pub input: Vec<u8>,
    pub expect: Expect,
}

/// One request of the load.
#[derive(Debug, Clone)]
pub struct Req {
    pub module: usize,
    pub class: usize,
    pub args: Vec<Value>,
    pub input: Vec<u8>,
    pub expect: Expect,
}

/// The bill a class must produce on every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bill {
    pub weighted_instructions: u64,
    pub peak_memory_bytes: u64,
    pub memory_integral: u128,
    pub io_bytes_in: u64,
    pub io_bytes_out: u64,
}

impl Bill {
    pub fn of(log: &ResourceUsageLog) -> Bill {
        Bill {
            weighted_instructions: log.weighted_instructions,
            peak_memory_bytes: log.peak_memory_bytes,
            memory_integral: log.memory_integral,
            io_bytes_in: log.io_bytes_in,
            io_bytes_out: log.io_bytes_out,
        }
    }
}

/// The inputs of one serving workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    pub modules: Vec<Module>,
    pub classes: Vec<Class>,
    /// `true`: the 3-instruction function with seeded arguments;
    /// `false`: the seeded compute mix over `classes`.
    tiny: bool,
}

/// `main(x) = x + 1`: three instructions, no memory, no branches.
pub fn tiny_module() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let f = b.func("main", &[ValType::I32], &[ValType::I32], |f| {
        f.local_get(0);
        f.i32_const(1);
        f.i32_add();
    });
    b.export_func("main", f);
    encode_module(&b.build())
}

/// A seeded `IMAGE_EDGE`² RGB image in the resize wire format.
fn image(seed: u64, k: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + IMAGE_EDGE * IMAGE_EDGE * 3);
    out.extend_from_slice(&(IMAGE_EDGE as u32).to_le_bytes());
    out.extend_from_slice(&(IMAGE_EDGE as u32).to_le_bytes());
    let base = draw(seed, 0x1a6e, k);
    for i in 0..(IMAGE_EDGE * IMAGE_EDGE * 3) as u64 {
        out.push((draw(base, i / 8, 0) >> ((i % 8) * 8)) as u8);
    }
    out
}

impl Inputs {
    /// The tiny function with seeded arguments.
    pub fn tiny(seed: u64) -> Inputs {
        let x = 41;
        Inputs {
            seed,
            modules: vec![Module {
                name: "tiny",
                bytes: tiny_module(),
                func: "main",
            }],
            // The function is branch-free, so its bill does not depend
            // on the argument; four probes at set-up confirm that.
            classes: (0..4)
                .map(|k| Class {
                    module: 0,
                    args: vec![Value::I32(x * k)],
                    input: Vec::new(),
                    expect: Expect::Results(vec![Value::I32((x * k).wrapping_add(1))]),
                })
                .collect(),
            tiny: true,
        }
    }

    /// PolyBench gemm, a seeded darknet variant, a seeded resize.
    pub fn compute(seed: u64) -> Inputs {
        let modules = vec![
            Module {
                name: "gemm",
                bytes: encode_module(&polybench::linear_algebra::gemm_build(GEMM_N)),
                func: "run",
            },
            Module {
                name: "darknet",
                bytes: encode_module(&darknet::darknet_module(DARKNET_S)),
                func: "run",
            },
            Module {
                name: "resize",
                bytes: encode_module(&faas_fns::resize_module()),
                func: "main",
            },
        ];
        let mut classes = vec![Class {
            module: 0,
            args: Vec::new(),
            input: Vec::new(),
            expect: Expect::Results(vec![Value::F64(polybench::linear_algebra::gemm_native(
                GEMM_N,
            ))]),
        }];
        for k in 0..VARIANTS {
            let v = (draw(seed, 0xda7, k) % 4096) as i32;
            classes.push(Class {
                module: 1,
                args: vec![Value::I32(v)],
                input: Vec::new(),
                expect: Expect::Results(vec![Value::F64(darknet::darknet_native(DARKNET_S, v))]),
            });
        }
        for k in 0..IMAGES {
            let img = image(seed, k);
            let out = faas_fns::resize_native(IMAGE_EDGE, IMAGE_EDGE, &img[8..]);
            classes.push(Class {
                module: 2,
                args: Vec::new(),
                input: img,
                expect: Expect::Output(out),
            });
        }
        Inputs {
            seed,
            modules,
            classes,
            tiny: false,
        }
    }

    /// Request `i` of connection `conn`: a pure function of the seed.
    pub fn request(&self, conn: u64, i: u64) -> Req {
        if self.tiny {
            let x = draw(self.seed, conn, i) as i32;
            return Req {
                module: 0,
                class: 0,
                args: vec![Value::I32(x)],
                input: Vec::new(),
                expect: Expect::Results(vec![Value::I32(x.wrapping_add(1))]),
            };
        }
        // Balanced blocks: two requests per module, seeded order.
        let block = i / COMPUTE_BLOCK;
        let mut order: Vec<u64> = (0..COMPUTE_BLOCK).collect();
        for k in (1..order.len()).rev() {
            let j = (draw(self.seed, conn << 32 | block, k as u64) % (k as u64 + 1)) as usize;
            order.swap(k, j);
        }
        let module = (order[(i % COMPUTE_BLOCK) as usize] / 2) as usize;
        let pick = draw(self.seed, conn ^ 0x5eed, i);
        let class = match module {
            0 => 0,
            1 => 1 + (pick % VARIANTS) as usize,
            _ => 1 + VARIANTS as usize + (pick % IMAGES) as usize,
        };
        let c = &self.classes[class];
        Req {
            module,
            class,
            args: c.args.clone(),
            input: c.input.clone(),
            expect: c.expect.clone(),
        }
    }

    /// Requests of one balanced block (the compute mix) or one
    /// pipelined batch (the tiny function).
    pub fn block_len(&self) -> u64 {
        if self.tiny {
            32
        } else {
            COMPUTE_BLOCK
        }
    }

    /// Executes every class once on the tree-walking oracle and returns
    /// the reference bills, failing if an oracle result disagrees with
    /// its native mirror (or, for the tiny function, if the bill
    /// depends on the argument).
    pub fn reference_bills(&self) -> Result<Vec<Bill>, String> {
        let mut dep = Deployment::new(ATTEST_SEED);
        dep.set_engine(Engine::Tree);
        let mut bills = Vec::new();
        for (k, c) in self.classes.iter().enumerate() {
            let m = &self.modules[c.module];
            let (bytes, ev) = dep
                .instrument(&m.bytes, Level::LoopBased)
                .map_err(|e| format!("{}: instrument: {e}", m.name))?;
            let loaded = dep
                .infrastructure()
                .load(&bytes, &ev)
                .map_err(|e| format!("{}: load: {e}", m.name))?;
            let (out, _) = dep
                .infrastructure()
                .execute_billed(&loaded, m.func, &c.args, &c.input, k as u64 + 1)
                .map_err(|e| format!("{}: execute: {e}", m.name))?;
            check_output(&c.expect, &out.results, &out.output)
                .map_err(|e| format!("{} oracle: {e}", m.name))?;
            bills.push(Bill::of(&out.log.log));
        }
        if self.tiny {
            let first = bills[0];
            if bills.iter().any(|b| *b != first) {
                return Err("tiny function bill depends on its argument".into());
            }
            bills.truncate(1);
        }
        Ok(bills)
    }
}

/// Compares a response with its expectation.
pub fn check_output(expect: &Expect, results: &[Value], output: &[u8]) -> Result<(), String> {
    match expect {
        Expect::Results(want) if !same_values(want, results) => {
            Err(format!("results {results:?}, expected {want:?}"))
        }
        Expect::Output(want) if want.as_slice() != output => Err(format!(
            "output of {} bytes differs from the native mirror's {}",
            output.len(),
            want.len()
        )),
        _ => Ok(()),
    }
}

/// Checks one verified response against its expectation and reference
/// bill.
pub fn check_response(
    req: &Req,
    results: &[Value],
    output: &[u8],
    log: &ResourceUsageLog,
    bills: &[Bill],
) -> Result<(), String> {
    check_output(&req.expect, results, output)?;
    let want = bills[req.class.min(bills.len() - 1)];
    let got = Bill::of(log);
    if got != want {
        return Err(format!("bill {got:?} differs from tree reference {want:?}"));
    }
    Ok(())
}
