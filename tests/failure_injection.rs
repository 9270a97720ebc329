//! Integration: failure paths across crate boundaries — misconfigured
//! writes, failing plugins, corrupt files, shutdown misuse. The service
//! must degrade loudly but never hang or corrupt data.

use std::sync::Arc;

use damaris::core::plugins::FnPlugin;
use damaris::core::prelude::*;
use damaris::h5::{FileReader, H5Error};

const XML: &str = r#"
<simulation name="faults">
  <architecture>
    <dedicated cores="1"/>
    <buffer size="1048576"/>
    <queue capacity="32"/>
  </architecture>
  <data>
    <layout name="row" type="f64" dimensions="64"/>
    <variable name="u" layout="row"/>
  </data>
</simulation>"#;

#[test]
fn bad_writes_fail_fast_without_poisoning_the_session() {
    let node = DamarisNode::builder()
        .config_str(XML)
        .expect("config")
        .clients(1)
        .build()
        .expect("node");
    let client = node.client(0).expect("client");

    assert!(matches!(
        client.write("ghost", 0, &[1.0f64; 64]),
        Err(DamarisError::UnknownVariable(_))
    ));
    assert!(matches!(
        client.write("u", 0, &[1.0f64; 63]),
        Err(DamarisError::LayoutMismatch { .. })
    ));
    // The session is still healthy after both failures.
    assert_eq!(
        client.write("u", 0, &[1.0f64; 64]).expect("good write"),
        WriteStatus::Written
    );
    client.end_iteration(0).expect("end");
    client.finalize().expect("finalize");
    let report = node.shutdown().expect("shutdown");
    assert_eq!(report.iterations_completed, 1);
}

#[test]
fn failing_plugin_is_reported_but_not_fatal() {
    let node = DamarisNode::builder()
        .config_str(XML)
        .expect("config")
        .clients(1)
        .build()
        .expect("node");
    node.register_plugin(Arc::new(FnPlugin::new("faulty", |ctx| {
        if ctx.iteration % 2 == 0 {
            Err(format!("induced failure at {}", ctx.iteration))
        } else {
            Ok(())
        }
    })));
    let client = node.client(0).expect("client");
    for it in 0..4 {
        client.write("u", it, &[0.5f64; 64]).expect("write");
        client.end_iteration(it).expect("end");
    }
    client.finalize().expect("finalize");
    let report = node.shutdown().expect("shutdown");
    assert_eq!(
        report.iterations_completed, 4,
        "service survived the failures"
    );
    assert_eq!(report.plugin_errors.len(), 2);
    assert!(report.plugin_errors[0].contains("induced failure"));
}

#[test]
fn corrupt_output_detected_on_read() {
    let dir = std::env::temp_dir().join(format!("damaris-fault-corrupt-{}", std::process::id()));
    let node = DamarisNode::builder()
        .config_str(&XML.replace("</architecture>", "<store/></architecture>"))
        .expect("config")
        .clients(1)
        .output_dir(&dir)
        .build()
        .expect("node");
    let client = node.client(0).expect("client");
    client.write("u", 0, &[3.0f64; 64]).expect("write");
    client.end_iteration(0).expect("end");
    client.finalize().expect("finalize");
    node.shutdown().expect("shutdown");

    let path = dir.join("faults_node0.dh5");
    // Flip a byte in the trailer.
    let mut bytes = std::fs::read(&path).expect("read back");
    let n = bytes.len();
    bytes[n - 1] ^= 0xff;
    std::fs::write(&path, &bytes).expect("write corruption");
    match FileReader::open(&path) {
        Err(H5Error::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("corruption must be detected"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn double_shutdown_and_post_shutdown_writes_error() {
    // Declare the "snap" event so the post-shutdown signal actually posts
    // (undeclared event names are filtered at the client edge and never
    // reach the queue).
    let xml = XML.replace(
        "</simulation>",
        r#"<actions><action name="s" plugin="viz" event="snap"/></actions></simulation>"#,
    );
    let node = DamarisNode::builder()
        .config_str(&xml)
        .expect("config")
        .clients(1)
        .build()
        .expect("node");
    let client = node.client(0).expect("client");
    client.finalize().expect("finalize");
    node.shutdown().expect("first shutdown");
    assert!(matches!(
        node.shutdown(),
        Err(DamarisError::InvalidState(_))
    ));
    assert!(matches!(
        client.write("u", 0, &[0.0f64; 64]),
        Err(DamarisError::QueueClosed)
    ));
    assert!(matches!(
        client.end_iteration(0),
        Err(DamarisError::QueueClosed)
    ));
    assert!(matches!(
        client.signal("snap", 0),
        Err(DamarisError::QueueClosed)
    ));
}

#[test]
fn oversized_variable_rejected_at_configuration_time() {
    let xml = XML.replace("size=\"1048576\"", "size=\"256\"");
    assert!(matches!(
        DamarisNode::builder().config_str(&xml),
        Err(DamarisError::Config(_))
    ));
}
