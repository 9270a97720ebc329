//! The serving-tier glue: one `damaris_serve::StreamServer` behind the
//! plugin seam, the same in both worlds.
//!
//! [`ServePlugin`] runs on the dedicated core at iteration completion and
//! publishes [`Payload::Shm`] clones of the completed blocks: the bytes
//! stay in shared memory — the thread world's segment, or the process
//! world's segment file (`damaris-segment.shm` in the world's spawn
//! directory), whose client is told its blocks are free only after the
//! last subscriber release. In the process world the server is bound over
//! that file: a subscriber on the same host, of the same user, reads each
//! block from it (a seek and a read) and sends back one RELEASE per
//! iteration; any other subscriber gets the bytes inline over TCP, sent
//! from the mapping. Blocks carry 0-based client ids and arrive ordered by
//! `(variable, source)` in both worlds, so DATA payloads are
//! byte-identical across worlds and modes.
//!
//! Auto-registered from `<serve listen="addr:port" …/>` — see
//! `NodeBuilder::build` and `ProcessServer::new`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use damaris_serve::{Payload, PublishBlock, ServeOptions, ServeStats, StreamServer};
use damaris_shm::ShmFile;
use damaris_xml::schema::Configuration;

use super::{IterationCtx, Plugin};

/// How long shutdown lets the poll thread flush queued frames and collect
/// releases before force-closing slow subscribers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

fn bind_from_config(
    cfg: &Configuration,
    output_dir: &Path,
    segment: Option<Arc<ShmFile>>,
) -> Result<StreamServer, String> {
    let sc = cfg.architecture.serve.clone().unwrap_or_default();
    let addr_file = sc.addr_file.map(|p| {
        let p = PathBuf::from(p);
        if p.is_absolute() {
            p
        } else {
            output_dir.join(p)
        }
    });
    StreamServer::bind_over(
        ServeOptions {
            listen: sc.listen.clone(),
            queue_frames: sc.queue_frames as usize,
            simulation: cfg.name.clone(),
            addr_file,
        },
        segment,
    )
    .map_err(|e| format!("serve: cannot bind '{}': {e}", sc.listen))
}

/// The serving plugin (`plugin="serve"`), auto-registered in both worlds
/// when the configuration has a `<serve>` element.
pub struct ServePlugin {
    server: StreamServer,
}

impl ServePlugin {
    /// Bind the streaming server per the `<serve>` element (relative
    /// `addr_file` resolves against `output_dir`), advertising `segment`
    /// — the process world's segment file — to same-host subscribers.
    pub fn new(
        cfg: &Configuration,
        output_dir: &Path,
        segment: Option<Arc<ShmFile>>,
    ) -> Result<Self, String> {
        Ok(ServePlugin {
            server: bind_from_config(cfg, output_dir, segment)?,
        })
    }

    /// The bound address (resolves an ephemeral `listen="…:0"` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Serving counters.
    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }
}

impl Plugin for ServePlugin {
    fn name(&self) -> &str {
        "serve"
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        let blocks = ctx
            .blocks
            .iter()
            .map(|b| PublishBlock {
                variable: ctx.config.var_name(b.variable).to_string(),
                source: b.source as u64,
                // Zero-copy: the frame holds the shm block alive until
                // the last subscriber write completes, or for a DATA_REF
                // until the subscriber releases it.
                payload: Payload::Shm(b.data.clone()),
            })
            .collect();
        self.server.publish(ctx.iteration, blocks);
        Ok(())
    }

    fn on_finalize(&self) -> Result<(), String> {
        self.server.shutdown(DRAIN_TIMEOUT);
        Ok(())
    }
}
