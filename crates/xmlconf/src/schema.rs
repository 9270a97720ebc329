//! Typed Damaris configuration schema.
//!
//! The paper (§III.A) bases all data management on "a high level description
//! of the data, coming from an external XML file in a way similar to ADIOS":
//! variables, their relationships (dimension scales, meshes, layouts) and the
//! configuration of the plugins that make up the data-management service.
//! This module is that description, loaded into plain Rust types.
//!
//! A full configuration looks like:
//!
//! ```xml
//! <simulation name="cm1">
//!   <architecture>
//!     <dedicated cores="1"/>
//!     <buffer size="67108864"/>
//!     <queue capacity="256"/>
//!     <skip mode="drop-iteration" high-watermark="0.8"/>
//!     <store path="out"/>
//!   </architecture>
//!   <data>
//!     <parameter name="nx" value="64"/>
//!     <parameter name="ny" value="64"/>
//!     <parameter name="nz" value="32"/>
//!     <layout name="grid3d" type="f32" dimensions="nx,ny,nz"/>
//!     <mesh name="atmosphere" type="rectilinear">
//!       <coord name="x" unit="m"/>
//!       <coord name="y" unit="m"/>
//!       <coord name="z" unit="m"/>
//!     </mesh>
//!     <variable name="u" layout="grid3d" mesh="atmosphere" unit="m/s"
//!               codec="xor-delta4,shuffle4,rle"/>
//!     <group name="moisture">
//!       <variable name="qv" layout="grid3d" mesh="atmosphere"/>
//!     </group>
//!   </data>
//!   <actions>
//!     <action name="summary" plugin="stats" event="end-of-iteration" frequency="4"/>
//!   </actions>
//! </simulation>
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{XmlError, XmlResult};
use crate::registry::{VarId, VarRegistry};
use crate::tree::Element;

/// Element type of a variable's layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ElemType {
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    F32,
    F64,
}

impl ElemType {
    /// Size in bytes of one element.
    pub fn size_bytes(self) -> usize {
        match self {
            ElemType::I8 | ElemType::U8 => 1,
            ElemType::I16 | ElemType::U16 => 2,
            ElemType::I32 | ElemType::U32 | ElemType::F32 => 4,
            ElemType::I64 | ElemType::U64 | ElemType::F64 => 8,
        }
    }

    /// Parse the `type="…"` attribute.
    pub fn parse(s: &str) -> XmlResult<Self> {
        Ok(match s.trim() {
            "i8" | "char" => ElemType::I8,
            "i16" | "short" => ElemType::I16,
            "i32" | "int" | "integer" => ElemType::I32,
            "i64" | "long" => ElemType::I64,
            "u8" => ElemType::U8,
            "u16" => ElemType::U16,
            "u32" => ElemType::U32,
            "u64" => ElemType::U64,
            "f32" | "float" | "real" => ElemType::F32,
            "f64" | "double" => ElemType::F64,
            other => return Err(XmlError::schema(format!("unknown element type '{other}'"))),
        })
    }

    /// Canonical name for serialization.
    pub fn name(self) -> &'static str {
        match self {
            ElemType::I8 => "i8",
            ElemType::I16 => "i16",
            ElemType::I32 => "i32",
            ElemType::I64 => "i64",
            ElemType::U8 => "u8",
            ElemType::U16 => "u16",
            ElemType::U32 => "u32",
            ElemType::U64 => "u64",
            ElemType::F32 => "f32",
            ElemType::F64 => "f64",
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named memory layout: element type plus dimensions.
///
/// Dimension expressions may reference `<parameter>` values by name; they are
/// resolved at load time so consumers always see concrete extents.
///
/// A layout may instead be **dynamic** (`dimensions="dynamic"`): its
/// variables carry a caller-supplied extent on every write — the AMR
/// shape, where block sizes change per iteration and per rank. Dynamic
/// layouts have no fixed byte size ([`Layout::byte_size`] reports 0); an
/// optional `max_size="…"` attribute bounds one block in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Layout name referenced by variables.
    pub name: String,
    /// Element type of the block.
    pub elem_type: ElemType,
    /// Concrete extents, slowest-varying first (C order). Empty for
    /// dynamic layouts (extents arrive per write).
    pub dimensions: Vec<usize>,
    /// Upper bound on one block, in bytes (`max_size="…"`); only
    /// meaningful on dynamic layouts. `None` = bounded by the buffer.
    pub max_bytes: Option<usize>,
}

impl Layout {
    /// Whether extents are caller-supplied per write instead of fixed
    /// (`dimensions="dynamic"`).
    pub fn is_dynamic(&self) -> bool {
        self.dimensions.is_empty()
    }

    /// Number of elements in one block of this layout (0 for dynamic
    /// layouts — the count arrives with each write).
    pub fn element_count(&self) -> usize {
        if self.is_dynamic() {
            0
        } else {
            self.dimensions.iter().product()
        }
    }

    /// Number of bytes in one block of this layout (0 for dynamic
    /// layouts).
    pub fn byte_size(&self) -> usize {
        self.element_count() * self.elem_type.size_bytes()
    }

    /// The largest block one write of this layout may occupy, in bytes:
    /// the fixed size, or `max_size` for dynamic layouts (`None` when a
    /// dynamic layout declares no bound).
    pub fn max_byte_size(&self) -> Option<usize> {
        if self.is_dynamic() {
            self.max_bytes
        } else {
            Some(self.byte_size())
        }
    }
}

/// Mesh topology kinds understood by downstream visualization plugins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshType {
    /// Axis-aligned, per-axis coordinate arrays.
    Rectilinear,
    /// Explicit per-node coordinates.
    Curvilinear,
    /// Point cloud.
    Points,
}

impl MeshType {
    fn parse(s: &str) -> XmlResult<Self> {
        Ok(match s.trim() {
            "rectilinear" => MeshType::Rectilinear,
            "curvilinear" => MeshType::Curvilinear,
            "points" => MeshType::Points,
            other => return Err(XmlError::schema(format!("unknown mesh type '{other}'"))),
        })
    }
}

/// A coordinate axis of a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coord {
    /// Axis name (`x`, `y`, …).
    pub name: String,
    /// Physical unit, if declared.
    pub unit: Option<String>,
}

/// A mesh that variables may attach to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    /// Mesh name referenced by variables.
    pub name: String,
    /// Topology kind.
    pub mesh_type: MeshType,
    /// Coordinate axes in declaration order.
    pub coords: Vec<Coord>,
}

/// Where a variable's values live relative to mesh cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Centering {
    /// One value per mesh node (default).
    #[default]
    Nodal,
    /// One value per mesh cell.
    Zonal,
}

/// A simulation variable shared with the dedicated cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// Fully qualified name (`group/name` when declared inside a group).
    pub name: String,
    /// Name of the layout describing one block of this variable.
    pub layout: String,
    /// Optional mesh the variable is defined on.
    pub mesh: Option<String>,
    /// Optional physical unit.
    pub unit: Option<String>,
    /// Value centering on the mesh.
    pub centering: Centering,
    /// Whether the `<store>` engine persists this variable (default true).
    pub store: bool,
    /// Compression pipeline spec for the `<store>` engine
    /// (`codec="xor-delta8,shuffle8,rle"`), validated against
    /// [`codec::Pipeline::from_spec`] at load time. `None` = store raw.
    pub codec: Option<String>,
}

/// When an action fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// After every `frequency`-th completed iteration.
    EndOfIteration {
        /// Fire every n-th iteration (≥ 1).
        frequency: u64,
    },
    /// When a client explicitly calls `signal(event_name)`.
    Event(
        /// Name of the user event.
        String,
    ),
}

/// One plugin invocation description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Action name (unique).
    pub name: String,
    /// Plugin identifier (what code runs).
    pub plugin: String,
    /// Firing condition.
    pub trigger: Trigger,
    /// Free-form key/value parameters passed to the plugin.
    pub params: Vec<(String, String)>,
}

impl Action {
    /// Look up a parameter by key.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Behaviour when the shared-memory segment approaches exhaustion
/// (paper §V.C.1: "accepting potential loss of data rather than blocking the
/// simulation").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkipMode {
    /// Block the writer until space is available (classic behaviour).
    ///
    /// Liveness caveat: blocking assumes the node's clients advance in
    /// rough lockstep (as MPI-synchronized simulation ranks do). If
    /// free-running clients skew further apart than the segment holds,
    /// the leader can fill every slot with blocks of iterations that
    /// cannot complete without the laggards, deadlocking all writers
    /// until the allocation timeout. Use `DropIteration` for
    /// unsynchronized producers.
    Block,
    /// Drop entire incoming iterations until pressure recedes.
    DropIteration,
}

/// Backpressure policy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipConfig {
    /// Reaction to memory pressure.
    pub mode: SkipMode,
    /// Fraction of segment occupancy above which the policy engages
    /// (0 < w ≤ 1).
    pub high_watermark: f64,
}

impl Default for SkipConfig {
    fn default() -> Self {
        SkipConfig {
            mode: SkipMode::Block,
            high_watermark: 0.9,
        }
    }
}

/// The event transport that carries client events to the dedicated cores
/// (`<queue kind="…">`). One remains; the type and the attribute stay so
/// configurations that name it keep parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// One lock-free SPSC ring per client, drained by work-stealing
    /// dedicated cores. Event-post cost stays flat as clients scale.
    #[default]
    Sharded,
}

impl QueueKind {
    /// Parse the `kind="…"` attribute.
    pub fn parse(s: &str) -> XmlResult<Self> {
        match s.trim() {
            "sharded" => Ok(QueueKind::Sharded),
            "mutex" => Err(XmlError::schema(
                "queue kind 'mutex' was removed; the sharded transport is the only one \
                 (drop the kind attribute or write kind=\"sharded\")",
            )),
            other => Err(XmlError::schema(format!("unknown queue kind '{other}'"))),
        }
    }

    /// Canonical name for serialization.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Sharded => "sharded",
        }
    }
}

impl fmt::Display for QueueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dedicated-core storage pipeline configuration (`<store>` inside
/// `<architecture>`).
///
/// When present, every iteration's stored blocks are compressed with each
/// variable's [`Variable::codec`] pipeline and appended to one h5lite file
/// per node; flush/fsync runs on a background flusher thread so
/// `end_iteration` latency is unaffected (the paper's §IV.D "600 %
/// compression at no overhead" path). The one backend is the in-tree
/// h5lite container format; `type="h5lite"` may name it, and any other
/// `type` is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory for the per-node files (`path="…"`); relative paths
    /// resolve against the node's output directory. `None` = the output
    /// directory itself.
    pub path: Option<String>,
    /// Whether the flusher thread syncs file contents to disk
    /// (`sync="false"` trades crash durability for speed; default true).
    pub sync: bool,
    /// Rows per chunk for chunked datasets, along the slowest-varying
    /// dimension (`chunk_rows="…"`, default 64).
    pub chunk_rows: u64,
    /// Encode worker threads inside the storage engine (`workers="N"`,
    /// must be ≥ 1). `None` = auto: available cores minus the configured
    /// clients, at least 1 — the cores the dedicated-core placement leaves
    /// idle on the node.
    pub workers: Option<u32>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            path: None,
            sync: true,
            chunk_rows: 64,
            workers: None,
        }
    }
}

/// Subscriber streaming tier configuration (`<serve>` inside
/// `<architecture>`).
///
/// When present, the dedicated core runs a TCP streaming server
/// (`damaris_serve`) beside the storage pipeline: every completed
/// iteration's blocks are published as length-prefixed frames to all
/// connected subscribers (in the process world, same-host subscribers read
/// the bytes from the segment file instead of the socket), with
/// per-subscriber bounded send queues
/// (drop-to-latest + LAG frame for slow consumers — the publisher never
/// blocks) and snapshot catch-up of the most recent completed iteration
/// for late joiners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`listen="addr:port"`). Port 0 picks an ephemeral
    /// port; see `addr_file` for discovery.
    pub listen: String,
    /// Per-subscriber bounded send queue, in frames (`queue_frames="N"`,
    /// must be ≥ 1). A publish that does not fit drops the whole
    /// iteration for that subscriber and schedules a LAG frame.
    pub queue_frames: u32,
    /// Completed iterations retained in the `VariableStore` for snapshot
    /// catch-up (`retain="N"`, must be ≥ 1). Older completed iterations
    /// are garbage-collected as usual.
    pub retain: u64,
    /// Optional file the server writes its bound address to
    /// (`addr_file="…"`); relative paths resolve against the node's
    /// output directory. Lets dashboards discover an ephemeral port.
    pub addr_file: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            queue_frames: 256,
            retain: 1,
            addr_file: None,
        }
    }
}

/// How the node's ranks are realized (`<world kind="…">`): threads in one
/// address space, or separate OS processes over the socket transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldKind {
    /// All ranks are threads of one process; events move through
    /// in-memory queues. The default (fastest, and what
    /// `damaris_core::DamarisNode` runs).
    #[default]
    Threads,
    /// Clients and dedicated cores are separate OS processes: events
    /// cross Unix-domain sockets and block payloads live in a
    /// file-backed shared-memory segment (`damaris_core::process`,
    /// `mini_mpi::World::run_spawned`) — the original middleware's
    /// architecture.
    Processes,
}

impl WorldKind {
    /// Parse the `kind="…"` attribute.
    pub fn parse(s: &str) -> XmlResult<Self> {
        Ok(match s.trim() {
            "threads" => WorldKind::Threads,
            "processes" => WorldKind::Processes,
            other => return Err(XmlError::schema(format!("unknown world kind '{other}'"))),
        })
    }

    /// Canonical name for serialization.
    pub fn name(self) -> &'static str {
        match self {
            WorldKind::Threads => "threads",
            WorldKind::Processes => "processes",
        }
    }
}

impl fmt::Display for WorldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Node-level resource configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Cores per node dedicated to data management (≥ 1 for Damaris mode,
    /// 0 selects the synchronous baselines).
    pub dedicated_cores: usize,
    /// Compute cores (simulation clients) per node (`<clients count="…"/>`).
    /// Lets one configuration describe the whole node, so launchers
    /// (`damaris_core::Damaris::launch`) need no out-of-band client count.
    pub clients: usize,
    /// Shared-memory segment capacity in bytes.
    pub buffer_size: usize,
    /// Event queue capacity in messages, aggregate across the clients'
    /// rings.
    pub queue_capacity: usize,
    /// Event-transport implementation (there is one).
    pub queue_kind: QueueKind,
    /// Rank realization: threads in one process, or one OS process per
    /// rank over the socket transport.
    pub world: WorldKind,
    /// Seed-list rendezvous for the process world (`<world
    /// seeds="host:port,…"/>`): ranks bootstrap via a registry on the
    /// first seed instead of a shared directory. `None` keeps shared-dir
    /// rendezvous. Ignored for the thread world.
    pub seeds: Option<String>,
    /// How long a process-world peer link may stay silent before the peer
    /// is declared dead (`<world heartbeat_timeout_ms="…"/>`); `None`
    /// keeps `mini_mpi`'s default. The ping interval is derived from it.
    pub heartbeat_timeout_ms: Option<u64>,
    /// Backpressure policy.
    pub skip: SkipConfig,
    /// Dedicated-core storage pipeline (`<store type="h5lite" …/>`);
    /// `None` = no live storage.
    pub store: Option<StoreConfig>,
    /// Subscriber streaming tier (`<serve listen="addr:port" …/>`);
    /// `None` = no serving.
    pub serve: Option<ServeConfig>,
}

impl Default for Architecture {
    fn default() -> Self {
        Architecture {
            dedicated_cores: 1,
            clients: 1,
            buffer_size: 64 << 20,
            queue_capacity: 1024,
            queue_kind: QueueKind::default(),
            world: WorldKind::default(),
            seeds: None,
            heartbeat_timeout_ms: None,
            skip: SkipConfig::default(),
            store: None,
            serve: None,
        }
    }
}

/// A complete, validated Damaris configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Configuration {
    /// Simulation name.
    pub name: String,
    /// Node architecture settings.
    pub architecture: Architecture,
    /// Named integer parameters usable in layout dimensions.
    pub parameters: BTreeMap<String, usize>,
    /// Declared layouts by name.
    pub layouts: BTreeMap<String, Layout>,
    /// Declared meshes by name.
    pub meshes: BTreeMap<String, Mesh>,
    /// Declared variables in document order.
    pub variables: Vec<Variable>,
    /// Declared actions in document order.
    pub actions: Vec<Action>,
    /// Interned variable/event ids with precomputed layout sizes, built at
    /// load time (see [`VarRegistry`]). `VarId` i refers to
    /// `variables[i]`.
    registry: VarRegistry,
}

impl Configuration {
    /// Parse and validate a configuration from XML text.
    #[allow(clippy::should_implement_trait)] // fallible, XML-specific parse
    pub fn from_str(xml: &str) -> XmlResult<Self> {
        let doc = crate::parse(xml)?;
        Self::from_element(&doc.root)
    }

    /// Load and validate a configuration from a file on disk.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> XmlResult<Self> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| XmlError::schema(format!("cannot read {:?}: {e}", path.as_ref())))?;
        Self::from_str(&text)
    }

    /// Build from an already parsed `<simulation>` root element.
    pub fn from_element(root: &Element) -> XmlResult<Self> {
        if root.name != "simulation" {
            return Err(XmlError::schema(format!(
                "root element must be <simulation>, found <{}>",
                root.name
            )));
        }
        let mut cfg = Configuration {
            name: root.attr("name").unwrap_or("unnamed").to_string(),
            ..Default::default()
        };

        if let Some(arch) = root.child("architecture") {
            cfg.architecture = parse_architecture(arch)?;
        }

        if let Some(data) = root.child("data") {
            // Parameters first: dimensions may reference them.
            for p in data.children_named("parameter") {
                let name = required_attr(p, "name")?;
                let value: usize = p
                    .attr_parse("value")
                    .map_err(XmlError::schema)?
                    .ok_or_else(|| XmlError::schema("<parameter> needs value=\"…\""))?;
                cfg.parameters.insert(name, value);
            }
            for l in data.children_named("layout") {
                let layout = parse_layout(l, &cfg.parameters)?;
                if cfg
                    .layouts
                    .insert(layout.name.clone(), layout.clone())
                    .is_some()
                {
                    return Err(XmlError::schema(format!(
                        "duplicate layout '{}'",
                        layout.name
                    )));
                }
            }
            for m in data.children_named("mesh") {
                let mesh = parse_mesh(m)?;
                if cfg.meshes.insert(mesh.name.clone(), mesh.clone()).is_some() {
                    return Err(XmlError::schema(format!("duplicate mesh '{}'", mesh.name)));
                }
            }
            for v in data.children_named("variable") {
                cfg.variables.push(parse_variable(v, None)?);
            }
            for g in data.children_named("group") {
                let gname = required_attr(g, "name")?;
                for v in g.children_named("variable") {
                    cfg.variables.push(parse_variable(v, Some(&gname))?);
                }
            }
        }

        if let Some(actions) = root.child("actions") {
            for a in actions.children_named("action") {
                cfg.actions.push(parse_action(a)?);
            }
        }

        cfg.validate()?;
        cfg.rebuild_registry();
        Ok(cfg)
    }

    /// Cross-reference validation: every variable has a known layout and
    /// mesh, names are unique, sizes are sane.
    pub fn validate(&self) -> XmlResult<()> {
        let mut seen = std::collections::BTreeSet::new();
        for v in &self.variables {
            if !seen.insert(&v.name) {
                return Err(XmlError::schema(format!("duplicate variable '{}'", v.name)));
            }
            let layout = self.layouts.get(&v.layout).ok_or_else(|| {
                XmlError::schema(format!(
                    "variable '{}' references unknown layout '{}'",
                    v.name, v.layout
                ))
            })?;
            if !layout.is_dynamic() && layout.element_count() == 0 {
                return Err(XmlError::schema(format!(
                    "layout '{}' has an empty extent",
                    layout.name
                )));
            }
            if let Some(mesh) = &v.mesh {
                if !self.meshes.contains_key(mesh) {
                    return Err(XmlError::schema(format!(
                        "variable '{}' references unknown mesh '{mesh}'",
                        v.name
                    )));
                }
            }
            if let Some(max) = layout.max_byte_size() {
                if max > self.architecture.buffer_size {
                    return Err(XmlError::schema(format!(
                        "variable '{}' ({} bytes) cannot fit the {}-byte shared buffer",
                        v.name, max, self.architecture.buffer_size
                    )));
                }
            }
            // Codec specs fail here, at load time, with the codec crate's
            // own diagnostics — never on the dedicated core's write path.
            if let Some(spec) = &v.codec {
                codec::Pipeline::from_spec(spec).map_err(|e| {
                    XmlError::schema(format!(
                        "variable '{}': invalid codec pipeline: {e}",
                        v.name
                    ))
                })?;
            }
        }
        let mut names = std::collections::BTreeSet::new();
        for a in &self.actions {
            if !names.insert(&a.name) {
                return Err(XmlError::schema(format!("duplicate action '{}'", a.name)));
            }
        }
        let w = self.architecture.skip.high_watermark;
        if !(w > 0.0 && w <= 1.0) {
            return Err(XmlError::schema(format!(
                "high-watermark {w} outside (0, 1]"
            )));
        }
        Ok(())
    }

    /// The interning table (variable and user-event ids). Built by the
    /// loaders; call [`Configuration::rebuild_registry`] after mutating a
    /// configuration by hand.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Rebuild the interning table from the current variables, layouts
    /// and actions.
    pub fn rebuild_registry(&mut self) {
        self.registry = VarRegistry::build(&self.variables, &self.layouts, &self.actions);
    }

    /// Look up a variable by (qualified) name — O(1) through the registry
    /// index (linear fallback for hand-assembled configurations whose
    /// registry was not rebuilt).
    pub fn variable(&self, name: &str) -> Option<&Variable> {
        // Fast path through the registry index, with a staleness check:
        // the declaration behind the id must still carry the queried name
        // (a hand-mutated `variables` without `rebuild_registry` falls
        // back to the scan instead of silently answering from stale data).
        if let Some(id) = self.registry.var_id(name) {
            if let Some(v) = self.variables.get(id.index()) {
                if v.name == name {
                    return Some(v);
                }
            }
        }
        self.variables.iter().find(|v| v.name == name)
    }

    /// The variable declaration behind an interned id.
    pub fn variable_by_id(&self, id: VarId) -> &Variable {
        &self.variables[id.index()]
    }

    /// The (qualified) name of an interned variable.
    pub fn var_name(&self, id: VarId) -> &str {
        self.registry.name(id)
    }

    /// The layout of a variable, if both exist.
    pub fn layout_of(&self, variable: &str) -> Option<&Layout> {
        self.variable(variable)
            .and_then(|v| self.layouts.get(&v.layout))
    }

    /// The resolved layout of an interned variable.
    pub fn layout_of_id(&self, id: VarId) -> &Layout {
        self.registry.layout(id)
    }

    /// Total bytes one client writes per iteration (all stored variables).
    pub fn bytes_per_iteration(&self) -> usize {
        self.variables
            .iter()
            .filter(|v| v.store)
            .filter_map(|v| self.layouts.get(&v.layout))
            .map(Layout::byte_size)
            .sum()
    }

    /// Serialize back to XML (used by tooling and round-trip tests).
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("simulation").with_attr("name", &self.name);
        let mut arch = Element::new("architecture")
            .with_child(
                Element::new("dedicated")
                    .with_attr("cores", self.architecture.dedicated_cores.to_string()),
            )
            .with_child(
                Element::new("clients").with_attr("count", self.architecture.clients.to_string()),
            )
            .with_child(
                Element::new("buffer").with_attr("size", self.architecture.buffer_size.to_string()),
            )
            .with_child(
                Element::new("queue")
                    .with_attr("capacity", self.architecture.queue_capacity.to_string()),
            )
            .with_child({
                let mut we =
                    Element::new("world").with_attr("kind", self.architecture.world.name());
                if let Some(seeds) = &self.architecture.seeds {
                    we = we.with_attr("seeds", seeds);
                }
                if let Some(t) = self.architecture.heartbeat_timeout_ms {
                    we = we.with_attr("heartbeat_timeout_ms", t.to_string());
                }
                we
            });
        if let Some(store) = &self.architecture.store {
            let mut se = Element::new("store")
                .with_attr("sync", if store.sync { "true" } else { "false" })
                .with_attr("chunk_rows", store.chunk_rows.to_string());
            if let Some(workers) = store.workers {
                se = se.with_attr("workers", workers.to_string());
            }
            if let Some(path) = &store.path {
                se = se.with_attr("path", path);
            }
            arch = arch.with_child(se);
        }
        if let Some(serve) = &self.architecture.serve {
            let mut se = Element::new("serve")
                .with_attr("listen", &serve.listen)
                .with_attr("queue_frames", serve.queue_frames.to_string())
                .with_attr("retain", serve.retain.to_string());
            if let Some(path) = &serve.addr_file {
                se = se.with_attr("addr_file", path);
            }
            arch = arch.with_child(se);
        }
        let arch = arch.with_child(
            Element::new("skip")
                .with_attr(
                    "mode",
                    match self.architecture.skip.mode {
                        SkipMode::Block => "block",
                        SkipMode::DropIteration => "drop-iteration",
                    },
                )
                .with_attr(
                    "high-watermark",
                    format!("{}", self.architecture.skip.high_watermark),
                ),
        );
        root = root.with_child(arch);

        let mut data = Element::new("data");
        for (name, value) in &self.parameters {
            data = data.with_child(
                Element::new("parameter")
                    .with_attr("name", name)
                    .with_attr("value", value.to_string()),
            );
        }
        for layout in self.layouts.values() {
            let dims = if layout.is_dynamic() {
                "dynamic".to_string()
            } else {
                let dims: Vec<String> = layout.dimensions.iter().map(|d| d.to_string()).collect();
                dims.join(",")
            };
            let mut le = Element::new("layout")
                .with_attr("name", &layout.name)
                .with_attr("type", layout.elem_type.name())
                .with_attr("dimensions", dims);
            if let Some(max) = layout.max_bytes {
                le = le.with_attr("max_size", max.to_string());
            }
            data = data.with_child(le);
        }
        for mesh in self.meshes.values() {
            let mut m = Element::new("mesh")
                .with_attr("name", &mesh.name)
                .with_attr(
                    "type",
                    match mesh.mesh_type {
                        MeshType::Rectilinear => "rectilinear",
                        MeshType::Curvilinear => "curvilinear",
                        MeshType::Points => "points",
                    },
                );
            for c in &mesh.coords {
                let mut ce = Element::new("coord").with_attr("name", &c.name);
                if let Some(u) = &c.unit {
                    ce = ce.with_attr("unit", u);
                }
                m = m.with_child(ce);
            }
            data = data.with_child(m);
        }
        for v in &self.variables {
            let mut ve = Element::new("variable")
                .with_attr("name", &v.name)
                .with_attr("layout", &v.layout);
            if let Some(m) = &v.mesh {
                ve = ve.with_attr("mesh", m);
            }
            if let Some(u) = &v.unit {
                ve = ve.with_attr("unit", u);
            }
            if v.centering == Centering::Zonal {
                ve = ve.with_attr("centering", "zonal");
            }
            if !v.store {
                ve = ve.with_attr("store", "false");
            }
            if let Some(c) = &v.codec {
                ve = ve.with_attr("codec", c);
            }
            data = data.with_child(ve);
        }
        root = root.with_child(data);

        if !self.actions.is_empty() {
            let mut actions = Element::new("actions");
            for a in &self.actions {
                let mut ae = Element::new("action")
                    .with_attr("name", &a.name)
                    .with_attr("plugin", &a.plugin);
                match &a.trigger {
                    Trigger::EndOfIteration { frequency } => {
                        ae = ae
                            .with_attr("event", "end-of-iteration")
                            .with_attr("frequency", frequency.to_string());
                    }
                    Trigger::Event(name) => {
                        ae = ae.with_attr("event", name);
                    }
                }
                for (k, v) in &a.params {
                    ae = ae.with_child(
                        Element::new("param")
                            .with_attr("name", k)
                            .with_attr("value", v),
                    );
                }
                actions = actions.with_child(ae);
            }
            root = root.with_child(actions);
        }
        root.to_xml()
    }
}

fn required_attr(el: &Element, name: &str) -> XmlResult<String> {
    el.attr(name)
        .map(str::to_string)
        .ok_or_else(|| XmlError::schema(format!("<{}> requires {name}=\"…\"", el.name)))
}

fn parse_architecture(el: &Element) -> XmlResult<Architecture> {
    let mut arch = Architecture::default();
    if let Some(d) = el.child("dedicated") {
        arch.dedicated_cores = d
            .attr_parse("cores")
            .map_err(XmlError::schema)?
            .unwrap_or(arch.dedicated_cores);
    }
    if let Some(c) = el.child("clients") {
        arch.clients = c
            .attr_parse("count")
            .map_err(XmlError::schema)?
            .unwrap_or(arch.clients);
        if arch.clients == 0 {
            return Err(XmlError::schema("<clients count> must be positive"));
        }
    }
    if let Some(b) = el.child("buffer") {
        arch.buffer_size = b
            .attr_parse("size")
            .map_err(XmlError::schema)?
            .unwrap_or(arch.buffer_size);
        if arch.buffer_size == 0 {
            return Err(XmlError::schema("<buffer size> must be positive"));
        }
    }
    if let Some(q) = el.child("queue") {
        arch.queue_capacity = q
            .attr_parse("capacity")
            .map_err(XmlError::schema)?
            .unwrap_or(arch.queue_capacity);
        if arch.queue_capacity == 0 {
            return Err(XmlError::schema("<queue capacity> must be positive"));
        }
        if let Some(kind) = q.attr("kind") {
            arch.queue_kind = QueueKind::parse(kind)?;
        }
    }
    if let Some(w) = el.child("world") {
        if let Some(kind) = w.attr("kind") {
            arch.world = WorldKind::parse(kind)?;
        }
        if let Some(seeds) = w.attr("seeds") {
            if seeds.trim().is_empty()
                || seeds
                    .split(',')
                    .any(|s| s.trim().is_empty() || !s.contains(':'))
            {
                return Err(XmlError::schema(format!(
                    "<world seeds> must be a comma-separated host:port list, got '{seeds}'"
                )));
            }
            arch.seeds = Some(seeds.to_string());
        }
        arch.heartbeat_timeout_ms = w
            .attr_parse("heartbeat_timeout_ms")
            .map_err(XmlError::schema)?;
        if arch.heartbeat_timeout_ms == Some(0) {
            return Err(XmlError::schema("<world heartbeat_timeout_ms> must be ≥ 1"));
        }
    }
    if let Some(s) = el.child("store") {
        let mut store = StoreConfig::default();
        match s.attr("type").map(str::trim) {
            None | Some("h5lite") => {}
            Some(other) => return Err(XmlError::schema(format!("unknown store type '{other}'"))),
        }
        store.path = s.attr("path").map(Into::into);
        store.sync = match s.attr("sync").unwrap_or("true") {
            "true" | "1" | "yes" => true,
            "false" | "0" | "no" => false,
            other => return Err(XmlError::schema(format!("bad store sync flag '{other}'"))),
        };
        store.chunk_rows = s
            .attr_parse("chunk_rows")
            .map_err(XmlError::schema)?
            .unwrap_or(store.chunk_rows);
        if store.chunk_rows == 0 {
            return Err(XmlError::schema("<store chunk_rows> must be ≥ 1"));
        }
        store.workers = s.attr_parse("workers").map_err(XmlError::schema)?;
        if store.workers == Some(0) {
            return Err(XmlError::schema("<store workers> must be ≥ 1"));
        }
        arch.store = Some(store);
    }
    if let Some(s) = el.child("serve") {
        let mut serve = ServeConfig::default();
        if let Some(listen) = s.attr("listen") {
            if listen.trim().is_empty() || !listen.contains(':') {
                return Err(XmlError::schema(format!(
                    "<serve listen> must be addr:port, got '{listen}'"
                )));
            }
            serve.listen = listen.to_string();
        }
        serve.queue_frames = s
            .attr_parse("queue_frames")
            .map_err(XmlError::schema)?
            .unwrap_or(serve.queue_frames);
        if serve.queue_frames == 0 {
            return Err(XmlError::schema("<serve queue_frames> must be ≥ 1"));
        }
        serve.retain = s
            .attr_parse("retain")
            .map_err(XmlError::schema)?
            .unwrap_or(serve.retain);
        if serve.retain == 0 {
            return Err(XmlError::schema("<serve retain> must be ≥ 1"));
        }
        serve.addr_file = s.attr("addr_file").map(Into::into);
        arch.serve = Some(serve);
    }
    if let Some(s) = el.child("skip") {
        let mode = match s.attr("mode").unwrap_or("block") {
            "block" => SkipMode::Block,
            "drop-iteration" => SkipMode::DropIteration,
            other => {
                return Err(XmlError::schema(format!("unknown skip mode '{other}'")));
            }
        };
        let hw = s
            .attr_parse::<f64>("high-watermark")
            .map_err(XmlError::schema)?
            .unwrap_or(SkipConfig::default().high_watermark);
        arch.skip = SkipConfig {
            mode,
            high_watermark: hw,
        };
    }
    Ok(arch)
}

fn parse_layout(el: &Element, params: &BTreeMap<String, usize>) -> XmlResult<Layout> {
    let name = required_attr(el, "name")?;
    let elem_type = ElemType::parse(&required_attr(el, "type")?)?;
    let dims_attr = required_attr(el, "dimensions")?;
    let max_bytes = el
        .attr_parse::<usize>("max_size")
        .map_err(XmlError::schema)?;
    if dims_attr.trim() == "dynamic" {
        // Variable-size layout: extents arrive with every write.
        if let Some(max) = max_bytes {
            if max == 0 {
                return Err(XmlError::schema(format!(
                    "layout '{name}': max_size must be positive"
                )));
            }
            if !max.is_multiple_of(elem_type.size_bytes()) {
                return Err(XmlError::schema(format!(
                    "layout '{name}': max_size {max} is not a whole number of {} elements",
                    elem_type.name()
                )));
            }
        }
        return Ok(Layout {
            name,
            elem_type,
            dimensions: Vec::new(),
            max_bytes,
        });
    }
    if max_bytes.is_some() {
        return Err(XmlError::schema(format!(
            "layout '{name}': max_size only applies to dimensions=\"dynamic\""
        )));
    }
    let mut dimensions = Vec::new();
    for token in dims_attr.split(',') {
        let token = token.trim();
        if token.is_empty() {
            return Err(XmlError::schema(format!(
                "layout '{name}' has an empty dimension token"
            )));
        }
        let extent = if let Ok(n) = token.parse::<usize>() {
            n
        } else {
            *params.get(token).ok_or_else(|| {
                XmlError::schema(format!(
                    "layout '{name}' dimension '{token}' is neither a number nor a declared parameter"
                ))
            })?
        };
        dimensions.push(extent);
    }
    Ok(Layout {
        name,
        elem_type,
        dimensions,
        max_bytes: None,
    })
}

fn parse_mesh(el: &Element) -> XmlResult<Mesh> {
    let name = required_attr(el, "name")?;
    let mesh_type = MeshType::parse(el.attr("type").unwrap_or("rectilinear"))?;
    let mut coords = Vec::new();
    for c in el.children_named("coord") {
        coords.push(Coord {
            name: required_attr(c, "name")?,
            unit: c.attr("unit").map(Into::into),
        });
    }
    Ok(Mesh {
        name,
        mesh_type,
        coords,
    })
}

fn parse_variable(el: &Element, group: Option<&str>) -> XmlResult<Variable> {
    let base = required_attr(el, "name")?;
    let name = match group {
        Some(g) => format!("{g}/{base}"),
        None => base,
    };
    let centering = match el.attr("centering").unwrap_or("nodal") {
        "nodal" => Centering::Nodal,
        "zonal" => Centering::Zonal,
        other => return Err(XmlError::schema(format!("unknown centering '{other}'"))),
    };
    let store = match el.attr("store").unwrap_or("true") {
        "true" | "1" | "yes" => true,
        "false" | "0" | "no" => false,
        other => return Err(XmlError::schema(format!("bad store flag '{other}'"))),
    };
    Ok(Variable {
        name,
        layout: required_attr(el, "layout")?,
        mesh: el.attr("mesh").map(Into::into),
        unit: el.attr("unit").map(Into::into),
        centering,
        store,
        codec: el.attr("codec").map(Into::into),
    })
}

fn parse_action(el: &Element) -> XmlResult<Action> {
    let name = required_attr(el, "name")?;
    let plugin = required_attr(el, "plugin")?;
    let trigger = match el.attr("event").unwrap_or("end-of-iteration") {
        "end-of-iteration" => {
            let frequency = el
                .attr_parse::<u64>("frequency")
                .map_err(XmlError::schema)?
                .unwrap_or(1);
            if frequency == 0 {
                return Err(XmlError::schema(format!(
                    "action '{name}': frequency must be ≥ 1"
                )));
            }
            Trigger::EndOfIteration { frequency }
        }
        custom => Trigger::Event(custom.to_string()),
    };
    let mut params = Vec::new();
    for p in el.children_named("param") {
        params.push((required_attr(p, "name")?, required_attr(p, "value")?));
    }
    Ok(Action {
        name,
        plugin,
        trigger,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
      <simulation name="cm1">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="67108864"/>
          <queue capacity="256"/>
          <skip mode="drop-iteration" high-watermark="0.8"/>
        </architecture>
        <data>
          <parameter name="nx" value="64"/>
          <parameter name="ny" value="64"/>
          <parameter name="nz" value="32"/>
          <layout name="grid3d" type="f32" dimensions="nx,ny,nz"/>
          <mesh name="atmosphere" type="rectilinear">
            <coord name="x" unit="m"/>
            <coord name="y" unit="m"/>
            <coord name="z" unit="m"/>
          </mesh>
          <variable name="u" layout="grid3d" mesh="atmosphere" unit="m/s"/>
          <variable name="theta" layout="grid3d" mesh="atmosphere" unit="K"/>
          <group name="moisture">
            <variable name="qv" layout="grid3d" mesh="atmosphere"/>
          </group>
        </data>
        <actions>
          <action name="dump" plugin="hdf5" event="end-of-iteration" frequency="2"/>
          <action name="pack" plugin="compress" event="end-of-iteration">
            <param name="pipeline" value="xor-delta,rle"/>
          </action>
          <action name="snapshot" plugin="viz" event="user-snapshot"/>
        </actions>
      </simulation>"#;

    #[test]
    fn full_configuration_loads() {
        let cfg = Configuration::from_str(FULL).unwrap();
        assert_eq!(cfg.name, "cm1");
        assert_eq!(cfg.architecture.dedicated_cores, 1);
        assert_eq!(cfg.architecture.buffer_size, 64 << 20);
        assert_eq!(cfg.architecture.queue_capacity, 256);
        assert_eq!(
            cfg.architecture.queue_kind,
            QueueKind::Sharded,
            "kind defaults to sharded"
        );
        assert_eq!(cfg.architecture.skip.mode, SkipMode::DropIteration);
        assert_eq!(cfg.variables.len(), 3);
        assert_eq!(cfg.variables[2].name, "moisture/qv");
        assert_eq!(cfg.layouts["grid3d"].dimensions, vec![64, 64, 32]);
        assert_eq!(cfg.layouts["grid3d"].byte_size(), 64 * 64 * 32 * 4);
        assert_eq!(cfg.actions.len(), 3);
        assert_eq!(
            cfg.actions[0].trigger,
            Trigger::EndOfIteration { frequency: 2 }
        );
        assert_eq!(cfg.actions[1].param("pipeline"), Some("xor-delta,rle"));
        assert_eq!(
            cfg.actions[2].trigger,
            Trigger::Event("user-snapshot".into())
        );
    }

    #[test]
    fn bytes_per_iteration_sums_stored_variables() {
        let cfg = Configuration::from_str(FULL).unwrap();
        assert_eq!(cfg.bytes_per_iteration(), 3 * 64 * 64 * 32 * 4);
    }

    #[test]
    fn parameters_resolve_in_dimensions() {
        let cfg = Configuration::from_str(FULL).unwrap();
        assert_eq!(cfg.layout_of("u").unwrap().element_count(), 64 * 64 * 32);
    }

    #[test]
    fn unknown_layout_rejected() {
        let xml = r#"<simulation><data>
            <variable name="u" layout="nope"/>
        </data></simulation>"#;
        let err = Configuration::from_str(xml).unwrap_err();
        assert!(err.to_string().contains("unknown layout"), "{err}");
    }

    #[test]
    fn unknown_mesh_rejected() {
        let xml = r#"<simulation><data>
            <layout name="l" type="f64" dimensions="2"/>
            <variable name="u" layout="l" mesh="ghost"/>
        </data></simulation>"#;
        assert!(Configuration::from_str(xml).is_err());
    }

    #[test]
    fn duplicate_variable_rejected() {
        let xml = r#"<simulation><data>
            <layout name="l" type="f64" dimensions="2"/>
            <variable name="u" layout="l"/>
            <variable name="u" layout="l"/>
        </data></simulation>"#;
        assert!(Configuration::from_str(xml).is_err());
    }

    #[test]
    fn oversized_variable_rejected() {
        let xml = r#"<simulation>
          <architecture><buffer size="16"/></architecture>
          <data>
            <layout name="big" type="f64" dimensions="1024"/>
            <variable name="u" layout="big"/>
          </data></simulation>"#;
        let err = Configuration::from_str(xml).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn bad_watermark_rejected() {
        let xml = r#"<simulation>
          <architecture><skip mode="block" high-watermark="1.5"/></architecture>
        </simulation>"#;
        assert!(Configuration::from_str(xml).is_err());
    }

    #[test]
    fn zero_frequency_rejected() {
        let xml = r#"<simulation><actions>
            <action name="a" plugin="p" event="end-of-iteration" frequency="0"/>
        </actions></simulation>"#;
        assert!(Configuration::from_str(xml).is_err());
    }

    #[test]
    fn undeclared_dimension_parameter_rejected() {
        let xml = r#"<simulation><data>
            <layout name="l" type="f32" dimensions="nx"/>
        </data></simulation>"#;
        let err = Configuration::from_str(xml).unwrap_err();
        assert!(err
            .to_string()
            .contains("neither a number nor a declared parameter"));
    }

    #[test]
    fn elem_type_sizes() {
        assert_eq!(ElemType::parse("double").unwrap(), ElemType::F64);
        assert_eq!(ElemType::F64.size_bytes(), 8);
        assert_eq!(ElemType::parse("int").unwrap().size_bytes(), 4);
        assert_eq!(ElemType::U16.size_bytes(), 2);
        assert!(ElemType::parse("quaternion").is_err());
    }

    #[test]
    fn xml_roundtrip_is_stable() {
        let cfg = Configuration::from_str(FULL).unwrap();
        let xml = cfg.to_xml();
        let cfg2 = Configuration::from_str(&xml).unwrap();
        assert_eq!(cfg, cfg2);
    }

    #[test]
    fn queue_kind_parses_and_roundtrips() {
        let xml = r#"<simulation name="s">
          <architecture><queue capacity="128" kind="sharded"/></architecture>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        assert_eq!(cfg.architecture.queue_kind, QueueKind::Sharded);
        assert_eq!(cfg.architecture.queue_capacity, 128);
        // Serialization leaves the one kind implicit; it parses back.
        let text = cfg.to_xml();
        assert!(!text.contains("kind=\"sharded\""), "{text}");
        let back = Configuration::from_str(&text).unwrap();
        assert_eq!(back, cfg);
        // The removed mutex kind is an error that says so; junk too.
        let err = Configuration::from_str(&xml.replace("sharded", "mutex")).unwrap_err();
        assert!(err.to_string().contains("'mutex' was removed"), "{err}");
        let bad = Configuration::from_str(
            r#"<simulation><architecture><queue kind="warp"/></architecture></simulation>"#,
        );
        assert!(bad.unwrap_err().to_string().contains("unknown queue kind"));
    }

    #[test]
    fn dynamic_layout_parses_and_roundtrips() {
        let xml = r#"<simulation name="amr">
          <architecture><buffer size="1048576"/></architecture>
          <data>
            <layout name="patch" type="f64" dimensions="dynamic" max_size="65536"/>
            <layout name="free" type="f32" dimensions="dynamic"/>
            <variable name="density" layout="patch"/>
            <variable name="tracer" layout="free"/>
          </data>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        let patch = &cfg.layouts["patch"];
        assert!(patch.is_dynamic());
        assert_eq!(patch.byte_size(), 0, "no fixed size");
        assert_eq!(patch.element_count(), 0);
        assert_eq!(patch.max_byte_size(), Some(65536));
        assert_eq!(cfg.layouts["free"].max_byte_size(), None);
        // Round trip preserves the dynamic form and the bound.
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back, cfg);
        // Registry: dynamic variables intern but seed no size class.
        let reg = cfg.registry();
        let density = reg.var_id("density").unwrap();
        assert!(reg.is_dynamic(density));
        assert_eq!(reg.byte_size(density), 0);
        assert_eq!(reg.max_byte_size(density), Some(65536));
        assert!(reg.distinct_byte_sizes().is_empty());
    }

    #[test]
    fn dynamic_layout_bad_forms_rejected() {
        // max_size on a fixed layout is meaningless.
        let bad = r#"<simulation><data>
            <layout name="l" type="f64" dimensions="8" max_size="64"/>
        </data></simulation>"#;
        assert!(Configuration::from_str(bad)
            .unwrap_err()
            .to_string()
            .contains("only applies"));
        // A zero or non-whole-element bound is rejected.
        let bad = r#"<simulation><data>
            <layout name="l" type="f64" dimensions="dynamic" max_size="0"/>
        </data></simulation>"#;
        assert!(Configuration::from_str(bad).is_err());
        let bad = r#"<simulation><data>
            <layout name="l" type="f64" dimensions="dynamic" max_size="100"/>
        </data></simulation>"#;
        assert!(Configuration::from_str(bad)
            .unwrap_err()
            .to_string()
            .contains("whole number"));
        // A dynamic bound larger than the buffer cannot ever be written.
        let bad = r#"<simulation>
          <architecture><buffer size="1024"/></architecture>
          <data>
            <layout name="l" type="f64" dimensions="dynamic" max_size="4096"/>
            <variable name="u" layout="l"/>
          </data></simulation>"#;
        assert!(Configuration::from_str(bad)
            .unwrap_err()
            .to_string()
            .contains("cannot fit"));
    }

    #[test]
    fn world_kind_parses_and_roundtrips() {
        let xml = r#"<simulation name="s">
          <architecture><world kind="processes"/></architecture>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        assert_eq!(cfg.architecture.world, WorldKind::Processes);
        // kind="…" survives serialize → parse.
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back.architecture.world, WorldKind::Processes);
        assert_eq!(back, cfg);
        // Explicit threads also round-trips; the default is threads;
        // junk is rejected.
        let cfg = Configuration::from_str(&xml.replace("processes", "threads")).unwrap();
        assert_eq!(cfg.architecture.world, WorldKind::Threads);
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert_eq!(cfg.architecture.world, WorldKind::Threads);
        let bad = Configuration::from_str(
            r#"<simulation><architecture><world kind="fibers"/></architecture></simulation>"#,
        );
        assert!(bad.unwrap_err().to_string().contains("unknown world kind"));
    }

    #[test]
    fn world_seeds_and_heartbeat_parse_and_roundtrip() {
        let xml = r#"<simulation name="s">
          <architecture>
            <world kind="processes" seeds="127.0.0.1:7000,10.0.0.2:7000"
                   heartbeat_timeout_ms="3000"/>
          </architecture>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        assert_eq!(cfg.architecture.world, WorldKind::Processes);
        assert_eq!(
            cfg.architecture.seeds.as_deref(),
            Some("127.0.0.1:7000,10.0.0.2:7000")
        );
        assert_eq!(cfg.architecture.heartbeat_timeout_ms, Some(3000));
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back, cfg, "seed/heartbeat attrs must round-trip");
        // The removed ping-interval attribute (the timeout's name without
        // `timeout_`) is ignored like any unknown attribute.
        let stray = Configuration::from_str(&xml.replace("_timeout_", "_")).unwrap();
        assert_eq!(stray.architecture.heartbeat_timeout_ms, None);
        assert!(!stray.to_xml().contains("heartbeat"));

        // Absent attributes stay None (and are not emitted).
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert_eq!(cfg.architecture.seeds, None);
        assert_eq!(cfg.architecture.heartbeat_timeout_ms, None);
        assert!(!cfg.to_xml().contains("seeds"));

        // A seed list without host:port shape is rejected.
        let bad = Configuration::from_str(
            r#"<simulation><architecture><world seeds="nohostport"/></architecture></simulation>"#,
        );
        assert!(bad.unwrap_err().to_string().contains("host:port"));
        let bad = Configuration::from_str(
            r#"<simulation><architecture>
              <world heartbeat_timeout_ms="0"/>
            </architecture></simulation>"#,
        );
        assert!(bad.unwrap_err().to_string().contains("must be ≥ 1"));
    }

    #[test]
    fn clients_count_parses_and_roundtrips() {
        let xml = r#"<simulation name="s">
          <architecture><clients count="7"/></architecture>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        assert_eq!(cfg.architecture.clients, 7);
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back.architecture.clients, 7);
        assert_eq!(back, cfg);
        // Absent element keeps the default of one client.
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert_eq!(cfg.architecture.clients, 1);
        let bad = Configuration::from_str(
            r#"<simulation><architecture><clients count="0"/></architecture></simulation>"#,
        );
        assert!(bad.unwrap_err().to_string().contains("must be positive"));
    }

    #[test]
    fn stale_registry_falls_back_to_scan() {
        // Mutating `variables` in place without rebuild_registry() must
        // not produce silently wrong lookups: the name check detects the
        // stale index and the scan answers from the live declarations.
        let mut cfg = Configuration::from_str(FULL).unwrap();
        cfg.variables[0].name = "renamed".to_string();
        assert_eq!(cfg.variable("renamed").unwrap().layout, "grid3d");
        assert!(cfg.variable("u").is_none(), "old name no longer resolves");
        assert!(cfg.layout_of("renamed").is_some());
        cfg.rebuild_registry();
        assert!(cfg.registry().var_id("renamed").is_some());
    }

    #[test]
    fn var_ids_stable_across_xml_roundtrip() {
        let cfg = Configuration::from_str(FULL).unwrap();
        let cfg2 = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(cfg.registry(), cfg2.registry());
        for v in &cfg.variables {
            let id = cfg.registry().var_id(&v.name).unwrap();
            assert_eq!(cfg2.registry().var_id(&v.name), Some(id));
            assert_eq!(cfg2.var_name(id), v.name);
            assert_eq!(
                cfg2.registry().byte_size(id),
                cfg.layout_of(&v.name).unwrap().byte_size()
            );
        }
        // O(1) lookups agree with the declarations.
        let id = cfg.registry().var_id("moisture/qv").unwrap();
        assert_eq!(cfg.variable_by_id(id).layout, "grid3d");
        assert_eq!(cfg.layout_of_id(id).element_count(), 64 * 64 * 32);
    }

    #[test]
    fn store_config_parses_and_roundtrips() {
        let xml = r#"<simulation name="s">
          <architecture>
            <buffer size="1048576"/>
            <store type="h5lite" path="out/h5" sync="false" chunk_rows="32" workers="4"/>
          </architecture>
          <data>
            <layout name="row" type="f64" dimensions="64"/>
            <variable name="u" layout="row" codec="xor-delta8,shuffle8,rle"/>
            <variable name="raw" layout="row"/>
          </data>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        let store = cfg.architecture.store.as_ref().unwrap();
        assert_eq!(store.path.as_deref(), Some("out/h5"));
        assert!(!store.sync);
        assert_eq!(store.chunk_rows, 32);
        assert_eq!(store.workers, Some(4));
        assert_eq!(
            cfg.variables[0].codec.as_deref(),
            Some("xor-delta8,shuffle8,rle")
        );
        assert_eq!(cfg.variables[1].codec, None);
        // The registry carries the codec spec to the hot path.
        let reg = cfg.registry();
        let u = reg.var_id("u").unwrap();
        assert_eq!(
            reg.entry(u).codec.as_deref(),
            Some("xor-delta8,shuffle8,rle")
        );
        // Everything survives serialize → parse.
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.registry(), cfg.registry());
    }

    #[test]
    fn store_defaults_and_bad_forms() {
        // Bare <store/> gets the defaults: synced, 64-row chunks.
        let cfg = Configuration::from_str(
            r#"<simulation><architecture><store/></architecture></simulation>"#,
        )
        .unwrap();
        let store = cfg.architecture.store.unwrap();
        assert_eq!(store, StoreConfig::default());
        assert!(store.sync);
        assert_eq!(store.chunk_rows, 64);
        assert_eq!(store.workers, None, "workers defaults to auto");
        // No <store> element means no storage pipeline.
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert!(cfg.architecture.store.is_none());
        // Junk forms are rejected.
        for (xml, needle) in [
            (
                r#"<simulation><architecture><store type="netcdf"/></architecture></simulation>"#,
                "unknown store type",
            ),
            (
                r#"<simulation><architecture><store sync="maybe"/></architecture></simulation>"#,
                "bad store sync flag",
            ),
            (
                r#"<simulation><architecture><store chunk_rows="0"/></architecture></simulation>"#,
                "chunk_rows",
            ),
            (
                r#"<simulation><architecture><store workers="0"/></architecture></simulation>"#,
                "workers",
            ),
            (
                r#"<simulation><architecture><store workers="many"/></architecture></simulation>"#,
                "workers",
            ),
        ] {
            let err = Configuration::from_str(xml).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn serve_config_parses_and_roundtrips() {
        let xml = r#"
        <simulation name="stream">
          <architecture>
            <buffer size="1048576"/>
            <serve listen="0.0.0.0:7070" queue_frames="32" retain="3" addr_file="serve.addr"/>
          </architecture>
        </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        let serve = cfg.architecture.serve.as_ref().unwrap();
        assert_eq!(serve.listen, "0.0.0.0:7070");
        assert_eq!(serve.queue_frames, 32);
        assert_eq!(serve.retain, 3);
        assert_eq!(serve.addr_file.as_deref(), Some("serve.addr"));
        // Everything survives serialize → parse.
        let back = Configuration::from_str(&cfg.to_xml()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn serve_defaults_and_bad_forms() {
        // Bare <serve/> gets the defaults: ephemeral loopback port,
        // 256-frame queues, one retained iteration.
        let cfg = Configuration::from_str(
            r#"<simulation><architecture><serve/></architecture></simulation>"#,
        )
        .unwrap();
        let serve = cfg.architecture.serve.unwrap();
        assert_eq!(serve, ServeConfig::default());
        assert_eq!(serve.listen, "127.0.0.1:0");
        assert_eq!(serve.queue_frames, 256);
        assert_eq!(serve.retain, 1);
        assert_eq!(serve.addr_file, None);
        // No <serve> element means no streaming tier.
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert!(cfg.architecture.serve.is_none());
        // Junk forms are rejected.
        for (xml, needle) in [
            (
                r#"<simulation><architecture><serve listen="nocolon"/></architecture></simulation>"#,
                "listen",
            ),
            (
                r#"<simulation><architecture><serve listen=""/></architecture></simulation>"#,
                "listen",
            ),
            (
                r#"<simulation><architecture><serve queue_frames="0"/></architecture></simulation>"#,
                "queue_frames",
            ),
            (
                r#"<simulation><architecture><serve queue_frames="lots"/></architecture></simulation>"#,
                "queue_frames",
            ),
            (
                r#"<simulation><architecture><serve retain="0"/></architecture></simulation>"#,
                "retain",
            ),
        ] {
            let err = Configuration::from_str(xml).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn malformed_codec_spec_fails_at_load_time() {
        // The satellite requirement: a bad codec="…" dies here with the
        // codec crate's diagnostic, not later on the write path.
        for (spec, needle) in [
            ("zstd", "unknown codec 'zstd'"),
            ("", "empty pipeline spec"),
            ("shuffle99", "out of range"),
            ("xor-deltax", "bad width"),
        ] {
            let xml = format!(
                r#"<simulation><data>
                    <layout name="row" type="f64" dimensions="8"/>
                    <variable name="u" layout="row" codec="{spec}"/>
                </data></simulation>"#
            );
            let err = Configuration::from_str(&xml).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("invalid codec pipeline") && msg.contains(needle),
                "spec '{spec}': {msg}"
            );
        }
    }

    #[test]
    fn defaults_when_sections_missing() {
        let cfg = Configuration::from_str("<simulation name=\"x\"/>").unwrap();
        assert_eq!(cfg.architecture.dedicated_cores, 1);
        assert!(cfg.variables.is_empty());
        assert_eq!(cfg.bytes_per_iteration(), 0);
    }

    #[test]
    fn non_simulation_root_rejected() {
        assert!(Configuration::from_str("<config/>").is_err());
    }
}
