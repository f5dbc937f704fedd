//! End-to-end integration: the full AccTEE protocol over real
//! evaluation workloads, crossing every crate boundary.

use acctee::{Deployment, Level, PricingModel, WeightTable};
use acctee_instrument::COUNTER_EXPORT;
use acctee_interp::{CountingObserver, Imports, Instance, Value};
use acctee_wasm::encode::encode_module;

/// The full pipeline on a PolyBench kernel: instrument through the IE,
/// execute in the AE, verify log, and check that the counter equals
/// the weighted oracle of the original module.
#[test]
fn polybench_kernel_through_full_protocol() {
    let kernel = acctee_workloads::polybench::by_name("gemm").expect("gemm exists");
    let module = (kernel.build)(10);
    let bytes = encode_module(&module);
    let weights = WeightTable::calibrated();

    let mut dep = Deployment::with_weights(11, weights.clone());
    let (instr_bytes, evidence) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let outcome = dep
        .execute(&instr_bytes, &evidence, "run", &[], b"")
        .expect("execute");

    // Result is bit-for-bit the native checksum.
    assert_eq!(
        outcome.results[0].as_f64().to_bits(),
        (kernel.native)(10).to_bits()
    );

    // The attested counter equals the weighted oracle.
    let mut oracle = CountingObserver::with_weight(|i| weights.weight(i));
    let mut inst = Instance::new(&module, Imports::new()).expect("instantiate");
    inst.invoke_observed("run", &[], &mut oracle).expect("run");
    assert_eq!(outcome.log.log.weighted_instructions, oracle.count);

    // Both parties accept the log.
    dep.workload_provider()
        .verify_log(&outcome.log)
        .expect("log verifies");
}

/// All three instrumentation levels agree with the oracle on every
/// use-case program (MSieve, PC, SubsetSum, Darknet) — the soundness
/// claim behind Fig 10.
#[test]
fn all_levels_exact_on_use_case_programs() {
    let weights = WeightTable::uniform();
    let programs: Vec<(&str, acctee_wasm::Module, Vec<Value>)> = vec![
        (
            "msieve",
            acctee_workloads::msieve::msieve_module(3, 5),
            vec![],
        ),
        ("pc", acctee_workloads::pc::pc_module(6, 25), vec![]),
        (
            "subsetsum",
            acctee_workloads::subsetsum::subsetsum_module(10, 2),
            vec![],
        ),
        (
            "darknet",
            acctee_workloads::darknet::darknet_module(12),
            vec![Value::I32(2)],
        ),
    ];
    for (name, module, args) in programs {
        let mut oracle = CountingObserver::unit();
        let mut inst = Instance::new(&module, Imports::new()).expect("instantiate");
        let expected = inst
            .invoke_observed("run", &args, &mut oracle)
            .expect("run");
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            let r = acctee_instrument::instrument(&module, level, &weights).expect("instrument");
            let mut inst = Instance::new(&r.module, Imports::new()).expect("instantiate");
            let got = inst.invoke("run", &args).expect("run");
            assert_eq!(got, expected, "{name} {level}: result unchanged");
            let counter = inst.global(COUNTER_EXPORT).expect("counter").as_i64() as u64;
            assert_eq!(counter, oracle.count, "{name} {level}: counter exact");
        }
    }
}

/// Billing: the invoice is linear in the work performed, across two
/// different problem sizes, and both memory policies price sanely.
#[test]
fn invoices_scale_with_work() {
    let mut dep = Deployment::new(3);
    let run = |dep: &mut Deployment, count: usize| {
        let bytes = encode_module(&acctee_workloads::subsetsum::subsetsum_module(count, 1));
        let (b, e) = dep
            .instrument(&bytes, Level::LoopBased)
            .expect("instrument");
        dep.execute(&b, &e, "run", &[], b"").expect("execute")
    };
    let small = run(&mut dep, 6);
    let large = run(&mut dep, 14);
    assert!(
        large.log.log.weighted_instructions > 2 * small.log.log.weighted_instructions,
        "more elements, superlinearly more work"
    );
    let pricing = PricingModel::default();
    let inv_small = pricing.invoice(&small.log.log);
    let inv_large = pricing.invoice(&large.log.log);
    assert!(inv_large.total() > inv_small.total());

    let integral = PricingModel {
        memory_policy: acctee::log::MemoryPolicy::Integral,
        ..PricingModel::default()
    };
    assert!(integral.invoice(&large.log.log).memory >= integral.invoice(&small.log.log).memory);
}

/// The FaaS I/O path is metered through the accounting enclave: echo's
/// log reports exactly the bytes in and out.
#[test]
fn io_accounting_through_accounting_enclave() {
    let mut dep = Deployment::new(9);
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (b, e) = dep
        .instrument(&bytes, Level::LoopBased)
        .expect("instrument");
    let payload = vec![0x5a; 1234];
    let outcome = dep.execute(&b, &e, "main", &[], &payload).expect("execute");
    assert_eq!(outcome.output, payload);
    assert_eq!(outcome.log.log.io_bytes_in, 1234);
    assert_eq!(outcome.log.log.io_bytes_out, 1234);
}

/// Two independent deployments (different authorities) do not trust
/// each other's artefacts: evidence from one fails in the other.
#[test]
fn deployments_are_isolated() {
    let dep_a = Deployment::new(1);
    let mut dep_b = Deployment::new(2);
    let bytes = encode_module(&acctee_workloads::faas_fns::echo_module());
    let (b, e) = dep_a.instrument(&bytes, Level::Naive).expect("instrument");
    assert!(dep_b.execute(&b, &e, "main", &[], b"x").is_err());
}

/// The weighted counter is stable across repeated executions
/// (determinism — required for "comparable accounting", R2).
#[test]
fn accounting_is_deterministic_across_runs_and_platforms() {
    let bytes = encode_module(&acctee_workloads::msieve::msieve_module(3, 9));
    let counts: Vec<u64> = (0..2)
        .flat_map(|seed| {
            let mut dep = Deployment::with_weights(seed + 50, WeightTable::uniform());
            let (b, e) = dep
                .instrument(&bytes, Level::LoopBased)
                .expect("instrument");
            (0..2)
                .map(|_| {
                    dep.execute(&b, &e, "run", &[], b"")
                        .expect("execute")
                        .log
                        .log
                        .weighted_instructions
                })
                .collect::<Vec<u64>>()
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

/// Golden signatures: every digest, MAC and seal the protocol emits is
/// pinned to bytes recorded from the original scalar SHA-256 and
/// per-call HMAC implementation. WAL and fleet-journal records carry
/// these quotes, so any drift here would make records signed by an
/// older build fail verification after replay.
#[test]
fn signatures_are_byte_identical_to_golden() {
    use acctee_sgx::crypto::{hex, sha256};
    use acctee_sgx::enclave::report_data;
    use acctee_sgx::{AttestationAuthority, Platform};

    // Raw SGX layer: a local report MAC, its quote, and a seal long
    // enough to need three keystream blocks.
    let authority = AttestationAuthority::new(0x901d);
    let platform = Platform::new("golden-host", 13);
    let qe = authority.provision(&platform);
    let enclave = platform.create_enclave(b"golden-enclave-code");
    let report = enclave.report(report_data(b"golden report data"));
    let quote = qe.quote(&report).expect("quote");
    assert_eq!(authority.verify(&quote), Ok(enclave.measurement()));
    let payload: Vec<u8> = (0..70u8).collect();
    let sealed = acctee_sgx::seal::seal(&enclave, [0x5e; 16], &payload);
    let raw = [
        (
            "report mac",
            hex(&report.mac),
            "3006b318b4684f11977919679f0fefe5965685ca10139a8dd0d3e9ada9b034bb",
        ),
        (
            "quote signature",
            hex(&quote.signature),
            "34a833de8297503d6c00e3db258b4f7596bec87d6c865b5044134e81716ed3fe",
        ),
        (
            "seal key",
            hex(&enclave.seal_key()),
            "e8729dacc668f8ff584bbf8e65bba22f54839e2f907b5ffb2a730eb52f66f970",
        ),
        (
            "sealed ciphertext digest",
            hex(&sha256(&sealed.ciphertext)),
            "904200281a74f1350a0f4080a7a3b39ca8a7d5100d02b9c7010d19cce39df00e",
        ),
        (
            "sealed tag",
            hex(&sealed.tag),
            "68ac483eedd20cb1b87f983672d87018c43203a9aa3dac9d70f4cef815e3c79a",
        ),
    ];

    // Protocol layer: instrumentation evidence and a signed usage log
    // from a fixed-seed deployment under the uniform weight table.
    let module = acctee_wasm::text::parse_module(
        r#"(module
             (memory 1)
             (func $sum (param $n i32) (result i32) (local $acc i32)
               block $done
                 loop $top
                   local.get $n
                   i32.eqz
                   br_if $done
                   local.get $acc
                   local.get $n
                   i32.add
                   local.set $acc
                   local.get $n
                   i32.const 1
                   i32.sub
                   local.set $n
                   br $top
                 end
               end
               local.get $acc)
             (export "sum" (func $sum)))"#,
    )
    .expect("parse");
    let mut dep = Deployment::with_weights(0x901d, WeightTable::uniform());
    let (bytes, evidence) = dep
        .instrument(&encode_module(&module), Level::LoopBased)
        .expect("instrument");
    let outcome = dep
        .execute(&bytes, &evidence, "sum", &[Value::I32(10)], b"")
        .expect("execute");
    assert_eq!(outcome.results, vec![Value::I32(55)]);
    let ae_sealed = dep
        .infrastructure()
        .accounting_enclave()
        .seal_state([0xa5; 16], b"accounting enclave state");
    let protocol = [
        (
            "instrumented hash",
            hex(&evidence.instrumented_hash),
            "5b807fe02a9a598a398b3bbfc5f56ee83c4b18a4e3a63e3e436bbc2b5c52178d",
        ),
        (
            "evidence signature",
            hex(&evidence.quote.signature),
            "f6b49eb355cc9f5f091588da99ed8acddda163da2955341f96814bdf0824db9e",
        ),
        (
            "log binding",
            hex(&outcome.log.log.binding()),
            "d5da43af057c9c9e01f7e3ccd1ef4a05d5660d8018cf3d0af3aa4197671dbe3a",
        ),
        (
            "log signature",
            hex(&outcome.log.quote.signature),
            "3a3720c9515eedcafa17b4a419219f1e3b431458b26bdb80127c5b1f9fb2d0bb",
        ),
        (
            "ae sealed tag",
            hex(&ae_sealed.tag),
            "22101eaf2373609205e4b66cbbcc1192faf9d8ae824c378bcea4064ff6e533f2",
        ),
    ];
    for (what, got, want) in raw.iter().chain(&protocol) {
        assert_eq!(got, want, "{what} drifted from the golden bytes");
    }
    // The unseal path must still accept both golden seals.
    assert_eq!(
        acctee_sgx::seal::unseal(&enclave, &sealed).as_deref(),
        Some(&payload[..])
    );
    assert_eq!(
        dep.infrastructure()
            .accounting_enclave()
            .unseal_state(&ae_sealed)
            .as_deref(),
        Some(&b"accounting enclave state"[..])
    );
}
