//! `wallclock`: host-CPU bench for the wire pipeline, written out as
//! `BENCH_wallclock.json`.
//!
//! Virtual-time figures (every other `BENCH_*.json`) never see the wire
//! fast path; this subcommand measures the real time the pipeline burns. Each stage is measured twice **in the same process**: the fast
//! path as shipped, and a faithful reconstruction of the pre-optimisation
//! pipeline (tree-clone serialisation, the two-pass reference parser,
//! buffered canonicalisation, `wire_size` computed by serialising). The
//! recorded baseline therefore moves with the host, keeping the speedup
//! ratio meaningful on any machine.
//!
//! Fails if the signed counter round-trip is not at least
//! `MIN_SIGNED_SPEEDUP`x faster than the in-process baseline, so CI gates
//! on the fast path staying fast.

use std::process::ExitCode;
use std::time::Instant;

use ogsa_core::addressing::{EndpointReference, MessageHeaders};
use ogsa_core::security::sha256::Sha256;
use ogsa_core::security::{sign_envelope, verify_envelope, CertStore};
use ogsa_core::sim::{CostModel, VirtualClock};
use ogsa_core::soap::Envelope;
use ogsa_core::xml::{
    canonicalize, canonicalize_into, parse, pooled_string, reference, CanonSink, Element,
};

use crate::fixtures::in_process_throughput;
use crate::{write_artifact, Gates};

/// The gate: the shipped signed round-trip must beat the pre-optimisation
/// pipeline by at least this factor.
const MIN_SIGNED_SPEEDUP: f64 = 2.0;

/// Client count for the real-throughput measurement.
const THROUGHPUT_CLIENTS: usize = 32;

fn counter_body(reps: usize) -> Element {
    let mut body = Element::new(ogsa_core::xml::QName::new(
        ogsa_core::xml::ns::COUNTER,
        "setValue",
    ));
    for i in 0..reps {
        body.add_child(
            Element::new("entry")
                .with_attr("seq", i.to_string())
                .with_child(Element::text_element("value", (i * 3).to_string())),
        );
    }
    body
}

fn request_envelope() -> Envelope {
    let target = EndpointReference::service("http://host-a/wsrf/counter");
    MessageHeaders::request(&target, "urn:counter:set", "uuid:wallclock-1")
        .apply(Envelope::new(counter_body(12)))
}

fn response_envelope() -> Envelope {
    Envelope::new(Element::text_element("setValueResponse", "37"))
}

/// Measure `f` with auto-calibrated iteration count: warm up, then run
/// batches until at least ~100ms has elapsed. Returns ns/op.
fn measure(f: &mut dyn FnMut()) -> f64 {
    for _ in 0..10 {
        f();
    }
    let mut iters = 0u64;
    let mut batch = 32u64;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        iters += batch;
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 100 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        batch = batch.saturating_mul(2).min(8192);
    }
}

/// All three rounds of a baseline/fast measurement, sorted ascending, so
/// the report can show run-to-run spread alongside the headline figure.
struct Samples {
    baseline: [f64; 3],
    fast: [f64; 3],
}

impl Samples {
    /// The headline figures stay each side's best (minimum) round —
    /// interference from a shared host hits one round, not the min, so
    /// the recorded ratio is stable across runs. The gate uses these.
    fn min(&self) -> (f64, f64) {
        (self.baseline[0], self.fast[0])
    }
}

/// Measure a baseline/fast pair in alternating rounds, keeping every
/// round's figure (sorted) so spread is visible in the JSON.
fn measure_pair(base: &mut dyn FnMut(), fast: &mut dyn FnMut()) -> Samples {
    let mut baseline = [0.0; 3];
    let mut fast_ns = [0.0; 3];
    for i in 0..3 {
        fast_ns[i] = measure(fast);
        baseline[i] = measure(base);
    }
    baseline.sort_by(f64::total_cmp);
    fast_ns.sort_by(f64::total_cmp);
    Samples {
        baseline,
        fast: fast_ns,
    }
}

/// Mirror of the production streamed sink: canonical fragments batch
/// through a small buffer before hitting the hash state.
struct ShaSink {
    hasher: Sha256,
    buf: [u8; 256],
    len: usize,
}

impl ShaSink {
    fn new() -> Self {
        ShaSink {
            hasher: Sha256::new(),
            buf: [0; 256],
            len: 0,
        }
    }

    fn finalize(mut self) -> [u8; 32] {
        self.hasher.update(&self.buf[..self.len]);
        self.hasher.finalize()
    }
}

impl CanonSink for ShaSink {
    fn push_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.buf.len() {
            self.hasher.update(&self.buf[..self.len]);
            self.len = 0;
            if bytes.len() >= self.buf.len() {
                self.hasher.update(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

fn streamed_digest(e: &Element) -> [u8; 32] {
    let mut sink = ShaSink::new();
    canonicalize_into(e, &mut sink);
    sink.finalize()
}

/// The pre-optimisation signing pipeline, reconstructed from the code the
/// fast path replaced: `wire_size` serialises the whole envelope, every
/// digest canonicalises into a fresh buffer on the scalar SHA-256 rounds
/// (the hardware compression path is part of the fast path), hex goes through the
/// formatting machinery, and the signature MAC buffers the canonical
/// `SignedInfo`. The MAC key is a fixed dummy (the real secret is
/// crate-private); key material does not change the work profile.
mod baseline {
    use super::Sha256;
    use ogsa_core::security::Certificate;
    use ogsa_core::soap::Envelope;
    use ogsa_core::xml::{canonicalize, ns, Element, QName};

    pub const SECRET: [u8; 32] = [0x5a; 32];

    /// Pre-optimisation hex: per-byte `write!`.
    pub fn hex(bytes: &[u8]) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Pre-optimisation one-shot digest: scalar rounds.
    pub fn sha256(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new_scalar();
        h.update(data);
        h.finalize()
    }

    fn digest_body_and_headers(env: &Envelope) -> (String, String) {
        let body_digest = hex(&sha256(&canonicalize(&env.body)));
        let mut h = Sha256::new_scalar();
        for header in &env.headers {
            if header.name.in_ns(ns::WSSE) || header.name.in_ns(ns::WSU) {
                continue;
            }
            h.update(&canonicalize(header));
        }
        (body_digest, hex(&h.finalize()))
    }

    fn mac(secret: &[u8; 32], data: &[u8]) -> String {
        let mut h = Sha256::new_scalar();
        h.update(secret);
        h.update(data);
        hex(&h.finalize())
    }

    pub fn sign(env: &mut Envelope, cert: &Certificate) {
        // The old `wire_size` serialised the envelope to count its bytes.
        let _size = env.to_element().into_document_string().len();
        let (body_digest, headers_digest) = digest_body_and_headers(env);
        let signed_info = Element::new(QName::new(ns::DS, "SignedInfo"))
            .with_child(
                Element::new(QName::new(ns::DS, "Reference"))
                    .with_attr("URI", "#Body")
                    .with_child(Element::text_element(
                        QName::new(ns::DS, "DigestValue"),
                        body_digest,
                    )),
            )
            .with_child(
                Element::new(QName::new(ns::DS, "Reference"))
                    .with_attr("URI", "#Headers")
                    .with_child(Element::text_element(
                        QName::new(ns::DS, "DigestValue"),
                        headers_digest,
                    )),
            );
        let signature_value = mac(&SECRET, &canonicalize(&signed_info));
        let signature = Element::new(QName::new(ns::DS, "Signature"))
            .with_child(signed_info)
            .with_child(Element::text_element(
                QName::new(ns::DS, "SignatureValue"),
                signature_value,
            ))
            .with_child(Element::new(QName::new(ns::DS, "KeyInfo")).with_child(
                Element::text_element(QName::new(ns::DS, "KeyName"), cert.key_id.clone()),
            ));
        let security = Element::new(QName::new(ns::WSSE, "Security"))
            .with_child(
                Element::new(QName::new(ns::WSU, "Timestamp"))
                    .with_child(Element::text_element(QName::new(ns::WSU, "Created"), "0")),
            )
            .with_child(
                Element::new(QName::new(ns::WSSE, "BinarySecurityToken"))
                    .with_child(cert.to_element()),
            )
            .with_child(signature);
        env.headers.push(security);
    }

    pub fn verify(env: &Envelope) -> bool {
        // The old `verify_envelope` also charged off a serialising wire_size.
        let _size = env.to_element().into_document_string().len();
        let Some(security) = env.header(&QName::new(ns::WSSE, "Security")) else {
            return false;
        };
        let Some(cert) = security
            .child(&QName::new(ns::WSSE, "BinarySecurityToken"))
            .and_then(|t| t.child_elements().next())
            .and_then(Certificate::from_element)
        else {
            return false;
        };
        let Some(signature) = security.child(&QName::new(ns::DS, "Signature")) else {
            return false;
        };
        let Some(signed_info) = signature.child(&QName::new(ns::DS, "SignedInfo")) else {
            return false;
        };
        let signature_value = signature
            .child(&QName::new(ns::DS, "SignatureValue"))
            .map(|s| s.text())
            .unwrap_or_default();
        let (body_digest, headers_digest) = digest_body_and_headers(env);
        for reference in signed_info.children_named(&QName::new(ns::DS, "Reference")) {
            let claimed = reference
                .child(&QName::new(ns::DS, "DigestValue"))
                .map(|d| d.text())
                .unwrap_or_default();
            let actual = match reference.attr_local("URI").unwrap_or("") {
                "#Body" => &body_digest,
                "#Headers" => &headers_digest,
                _ => return false,
            };
            if &claimed != actual {
                return false;
            }
        }
        let _ = cert;
        mac(&SECRET, &canonicalize(signed_info)) == signature_value
    }
}

fn fast_signed_roundtrip(
    store: &CertStore,
    identity: &ogsa_core::security::Identity,
    clock: &VirtualClock,
    model: &CostModel,
) {
    // Request: client signs and serialises, server parses and verifies.
    let mut req = request_envelope();
    sign_envelope(&mut req, identity, clock, model);
    let mut wire = pooled_string();
    req.to_wire_into(&mut wire);
    let received = Envelope::from_wire(&wire).expect("fast request parse");
    verify_envelope(&received, store, clock, model).expect("fast request verify");
    // Response: server signs and serialises, client parses and verifies.
    let mut resp = response_envelope();
    sign_envelope(&mut resp, identity, clock, model);
    let mut wire = pooled_string();
    resp.to_wire_into(&mut wire);
    let received = Envelope::from_wire(&wire).expect("fast response parse");
    verify_envelope(&received, store, clock, model).expect("fast response verify");
}

fn baseline_signed_roundtrip(cert: &ogsa_core::security::Certificate) {
    let mut req = request_envelope();
    baseline::sign(&mut req, cert);
    let wire = req.to_element().into_document_string();
    let root = reference::parse(&wire).expect("baseline request parse");
    let received = Envelope::from_element(&root).expect("baseline request envelope");
    assert!(baseline::verify(&received), "baseline request verify");
    let mut resp = response_envelope();
    baseline::sign(&mut resp, cert);
    let wire = resp.to_element().into_document_string();
    let root = reference::parse(&wire).expect("baseline response parse");
    let received = Envelope::from_element(&root).expect("baseline response envelope");
    assert!(baseline::verify(&received), "baseline response verify");
}

fn spread_json(sorted: &[f64; 3]) -> String {
    format!(
        "{{\"min\":{:.1},\"median\":{:.1},\"max\":{:.1}}}",
        sorted[0], sorted[1], sorted[2]
    )
}

/// `baseline_ns_per_op` / `fast_ns_per_op` / `speedup` keep their original
/// (min-of-3) meaning so downstream readers of old reports keep working;
/// the `*_spread` objects carry all three rounds.
fn stage_json(name: &str, samples: &Samples) -> String {
    let (baseline_ns, fast_ns) = samples.min();
    format!(
        "\"{name}\":{{\"baseline_ns_per_op\":{:.1},\"fast_ns_per_op\":{:.1},\"speedup\":{:.3},\"baseline_ns_spread\":{},\"fast_ns_spread\":{}}}",
        baseline_ns,
        fast_ns,
        baseline_ns / fast_ns,
        spread_json(&samples.baseline),
        spread_json(&samples.fast),
    )
}

pub fn run(out_dir: &str) -> ExitCode {
    // Stage 1: parse.
    let wire = request_envelope().to_wire();
    let parse_samples = measure_pair(
        &mut || {
            reference::parse(&wire).expect("reference parse");
        },
        &mut || {
            parse(&wire).expect("parse");
        },
    );

    // Stage 2: write.
    let env = request_envelope();
    let write_samples = measure_pair(
        &mut || {
            env.to_element().into_document_string();
        },
        &mut || {
            let mut buf = pooled_string();
            env.to_wire_into(&mut buf);
        },
    );

    // Stage 3: canonicalise + digest.
    let body = counter_body(50);
    let c14n_samples = measure_pair(
        &mut || {
            baseline::sha256(&canonicalize(&body));
        },
        &mut || {
            streamed_digest(&body);
        },
    );

    // Stage 4: the full signed counter round-trip.
    let store = CertStore::new();
    let identity = store.authority("CN=UVA-CA").issue("CN=wallclock,O=UVA-VO");
    let clock = VirtualClock::new();
    let model = CostModel::free();
    let signed_samples = measure_pair(
        &mut || baseline_signed_roundtrip(&identity.cert),
        &mut || fast_signed_roundtrip(&store, &identity, &clock, &model),
    );
    let (parse_base, parse_fast) = parse_samples.min();
    let (write_base, write_fast) = write_samples.min();
    let (c14n_base, c14n_fast) = c14n_samples.min();
    let (signed_base, signed_fast) = signed_samples.min();
    let signed_speedup = signed_base / signed_fast;

    // Real (host) throughput of the multi-client harness, signed, at the
    // acceptance client count.
    let (requests, wall) = in_process_throughput(THROUGHPUT_CLIENTS);
    let real_rps = requests as f64 / wall.as_secs_f64();

    println!("wallclock wire pipeline (ns/op, in-process baseline vs fast path)");
    println!(
        "  parse:            {parse_base:>10.1} -> {parse_fast:>10.1}  ({:.2}x)",
        parse_base / parse_fast
    );
    println!(
        "  write:            {write_base:>10.1} -> {write_fast:>10.1}  ({:.2}x)",
        write_base / write_fast
    );
    println!(
        "  c14n+digest:      {c14n_base:>10.1} -> {c14n_fast:>10.1}  ({:.2}x)",
        c14n_base / c14n_fast
    );
    println!(
        "  signed roundtrip: {signed_base:>10.1} -> {signed_fast:>10.1}  ({signed_speedup:.2}x)"
    );
    println!(
        "  throughput: {requests} signed counter requests, {THROUGHPUT_CLIENTS} clients, {:.0}ms wall, {:.0} real rps",
        wall.as_secs_f64() * 1_000.0,
        real_rps
    );

    let mut gates = Gates::new("wallclock gate");
    gates.check(
        format!("signed round-trip {signed_speedup:.2}x >= {MIN_SIGNED_SPEEDUP}x"),
        signed_speedup >= MIN_SIGNED_SPEEDUP,
    );
    let json = format!(
        "{{\"benchmark\":\"wallclock\",\"stages\":{{{},{},{},{}}},\"throughput\":{{\"workload\":\"counter\",\"policy\":\"x509\",\"clients\":{},\"shards\":8,\"requests\":{},\"real_elapsed_ms\":{:.1},\"real_rps\":{:.1}}},\"gate\":{{\"signed_roundtrip_min_speedup\":{},\"signed_roundtrip_speedup\":{:.3},\"pass\":{}}}}}\n",
        stage_json("parse", &parse_samples),
        stage_json("write", &write_samples),
        stage_json("c14n_digest", &c14n_samples),
        stage_json("signed_roundtrip", &signed_samples),
        THROUGHPUT_CLIENTS,
        requests,
        wall.as_secs_f64() * 1_000.0,
        real_rps,
        MIN_SIGNED_SPEEDUP,
        signed_speedup,
        gates.pass(),
    );
    write_artifact(out_dir, "BENCH_wallclock.json", &json);
    gates.finish()
}
