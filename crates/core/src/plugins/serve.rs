//! The serving-tier glue: one `damaris_serve::StreamServer` behind the
//! plugin seam, the same in both worlds.
//!
//! [`ServePlugin`] runs on the dedicated core at iteration completion and
//! publishes [`Payload::Shm`] clones of the completed blocks: the bytes
//! never leave shared memory until the poll thread writes the last
//! subscriber frame referencing them — the thread world's segment or the
//! process world's `/dev/shm` mapping, whose client is told its blocks
//! are free only then. Blocks carry 0-based client ids and arrive ordered
//! by `(variable, source)` in both worlds, so DATA frames are
//! byte-identical across them.
//!
//! Auto-registered from `<serve listen="addr:port" …/>` — see
//! `NodeBuilder::build` and `ProcessServer::new`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

use damaris_serve::{Payload, PublishBlock, ServeOptions, ServeStats, StreamServer};
use damaris_xml::schema::Configuration;

use super::{IterationCtx, Plugin};

/// How long shutdown lets the poll thread flush queued frames before
/// force-closing slow subscribers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

fn bind_from_config(cfg: &Configuration, output_dir: &Path) -> Result<StreamServer, String> {
    let sc = cfg.architecture.serve.clone().unwrap_or_default();
    let addr_file = sc.addr_file.map(|p| {
        let p = PathBuf::from(p);
        if p.is_absolute() {
            p
        } else {
            output_dir.join(p)
        }
    });
    StreamServer::bind(ServeOptions {
        listen: sc.listen.clone(),
        queue_frames: sc.queue_frames as usize,
        simulation: cfg.name.clone(),
        addr_file,
    })
    .map_err(|e| format!("serve: cannot bind '{}': {e}", sc.listen))
}

/// The serving plugin (`plugin="serve"`), auto-registered in both worlds
/// when the configuration has a `<serve>` element.
pub struct ServePlugin {
    server: StreamServer,
}

impl ServePlugin {
    /// Bind the streaming server per the `<serve>` element (relative
    /// `addr_file` resolves against `output_dir`).
    pub fn new(cfg: &Configuration, output_dir: &Path) -> Result<Self, String> {
        Ok(ServePlugin {
            server: bind_from_config(cfg, output_dir)?,
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
                // the last subscriber write completes.
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
