//! Interned identifiers for the configuration's variables and user
//! events.
//!
//! The write hot path must not pay for strings: resolving a variable name
//! with a linear scan, allocating a fresh `String` per published block and
//! re-comparing it on the dedicated core all scale with configuration size
//! and iteration count. The [`VarRegistry`] is built once at configuration
//! load and freezes every declared variable into a dense [`VarId`] (and
//! every action-referenced user event into an [`EventId`]) with its layout
//! byte size precomputed, so:
//!
//! * name → id is one O(1) hash lookup (done once at the API edge);
//! * id → name / layout / byte-size is one array index;
//! * events and stored blocks carry a 4-byte copyable id instead of a
//!   heap-allocated string.
//!
//! Ids are assigned in declaration order, so they are stable across an
//! XML serialize → parse round trip of the same configuration.

use std::collections::HashMap;

use crate::schema::{Action, ElemType, Layout, Trigger, Variable};

/// Interned handle of a declared variable (dense, declaration-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Rebuild an id from its raw index (tests, benches, wire formats).
    /// Only meaningful for indices previously produced by the same
    /// registry.
    pub fn from_raw(raw: u32) -> Self {
        VarId(raw)
    }

    /// The raw dense index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "var#{}", self.0)
    }
}

/// Interned handle of a user event referenced by `<action event="…">`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u32);

impl EventId {
    /// Rebuild an id from its raw index (tests and benches).
    pub fn from_raw(raw: u32) -> Self {
        EventId(raw)
    }

    /// The raw dense index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Everything the hot path needs to know about one variable, resolved at
/// configuration load.
#[derive(Debug, Clone, PartialEq)]
pub struct VarEntry {
    /// Fully qualified variable name (`group/name` inside groups).
    pub name: String,
    /// The resolved layout (concrete extents).
    pub layout: Layout,
    /// Precomputed `layout.byte_size()` — the exact shared-memory block
    /// size every write of this variable allocates. 0 for variables on
    /// dynamic layouts, whose sizes arrive with each write.
    pub byte_size: usize,
    /// Element type of the layout.
    pub elem_type: ElemType,
    /// Whether the `<store>` engine persists this variable.
    pub store: bool,
    /// Compression pipeline spec (`codec="…"`), validated at load time;
    /// `None` = store raw bytes.
    pub codec: Option<String>,
}

/// Immutable interning table built from a validated configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarRegistry {
    vars: Vec<VarEntry>,
    by_name: HashMap<String, u32>,
    events: Vec<String>,
    event_by_name: HashMap<String, u32>,
}

impl VarRegistry {
    /// Build the registry. Variables referencing unknown layouts are
    /// skipped (validation rejects them before this runs).
    pub fn build(
        variables: &[Variable],
        layouts: &std::collections::BTreeMap<String, Layout>,
        actions: &[Action],
    ) -> Self {
        let mut vars = Vec::with_capacity(variables.len());
        let mut by_name = HashMap::with_capacity(variables.len());
        for v in variables {
            let Some(layout) = layouts.get(&v.layout) else {
                continue;
            };
            by_name.insert(v.name.clone(), vars.len() as u32);
            vars.push(VarEntry {
                name: v.name.clone(),
                layout: layout.clone(),
                byte_size: layout.byte_size(),
                elem_type: layout.elem_type,
                store: v.store,
                codec: v.codec.clone(),
            });
        }
        let mut events = Vec::new();
        let mut event_by_name = HashMap::new();
        for a in actions {
            if let Trigger::Event(name) = &a.trigger {
                if !event_by_name.contains_key(name) {
                    event_by_name.insert(name.clone(), events.len() as u32);
                    events.push(name.clone());
                }
            }
        }
        VarRegistry {
            vars,
            by_name,
            events,
            event_by_name,
        }
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables are interned.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Resolve a variable name — one hash lookup, no allocation.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).map(|&i| VarId(i))
    }

    /// The entry of an interned variable, if the id is in range.
    pub fn get(&self, id: VarId) -> Option<&VarEntry> {
        self.vars.get(id.index())
    }

    /// The entry of an interned variable.
    ///
    /// Panics when the id does not belong to this registry — ids are only
    /// produced by [`VarRegistry::var_id`], so an out-of-range id is a
    /// cross-configuration mix-up.
    pub fn entry(&self, id: VarId) -> &VarEntry {
        &self.vars[id.index()]
    }

    /// Name of an interned variable.
    pub fn name(&self, id: VarId) -> &str {
        &self.entry(id).name
    }

    /// Resolved layout of an interned variable.
    pub fn layout(&self, id: VarId) -> &Layout {
        &self.entry(id).layout
    }

    /// Precomputed block byte size of an interned variable (0 for
    /// dynamic layouts — see [`VarRegistry::is_dynamic`]).
    pub fn byte_size(&self, id: VarId) -> usize {
        self.entry(id).byte_size
    }

    /// Whether the variable's layout is dynamic (per-write extents).
    pub fn is_dynamic(&self, id: VarId) -> bool {
        self.entry(id).layout.is_dynamic()
    }

    /// Upper bound on one block of this variable, in bytes (`None` for a
    /// dynamic layout without a declared `max_size`).
    pub fn max_byte_size(&self, id: VarId) -> Option<usize> {
        self.entry(id).layout.max_byte_size()
    }

    /// All entries in id order.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarEntry)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, e)| (VarId(i as u32), e))
    }

    /// Distinct block byte sizes across all fixed-layout variables — the
    /// seed for the shared-memory segment's size-class queues.
    /// Dynamic layouts contribute nothing here: their per-write sizes are
    /// served by the segment's first-fit list, not by an exact class.
    pub fn distinct_byte_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .vars
            .iter()
            .map(|e| e.byte_size)
            .filter(|&s| s > 0)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// Resolve a user-event name declared by some `<action event="…">`.
    /// Undeclared names yield `None`: no action could match them, so a
    /// signal carrying one is a no-op.
    pub fn event_id(&self, name: &str) -> Option<EventId> {
        self.event_by_name.get(name).map(|&i| EventId(i))
    }

    /// Name of an interned user event.
    pub fn event_name(&self, id: EventId) -> &str {
        &self.events[id.index()]
    }

    /// Number of interned user events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Configuration;

    const XML: &str = r#"
      <simulation name="reg">
        <data>
          <layout name="small" type="f64" dimensions="8"/>
          <layout name="big" type="f32" dimensions="16,16"/>
          <variable name="u" layout="small"/>
          <variable name="v" layout="big"/>
          <group name="g">
            <variable name="w" layout="small"/>
          </group>
        </data>
        <actions>
          <action name="dump" plugin="hdf5" event="end-of-iteration"/>
          <action name="snap" plugin="viz" event="user-snapshot"/>
          <action name="snap2" plugin="viz2" event="user-snapshot"/>
          <action name="probe" plugin="p" event="probe-now"/>
        </actions>
      </simulation>"#;

    #[test]
    fn interns_variables_in_declaration_order() {
        let cfg = Configuration::from_str(XML).unwrap();
        let reg = cfg.registry();
        assert_eq!(reg.len(), 3);
        let u = reg.var_id("u").unwrap();
        let v = reg.var_id("v").unwrap();
        let w = reg.var_id("g/w").unwrap();
        assert_eq!((u.raw(), v.raw(), w.raw()), (0, 1, 2));
        assert_eq!(reg.name(v), "v");
        assert_eq!(reg.byte_size(u), 64);
        assert_eq!(reg.byte_size(v), 16 * 16 * 4);
        assert_eq!(reg.layout(w).dimensions, vec![8]);
        assert!(reg.var_id("nope").is_none());
        assert!(reg.get(VarId::from_raw(99)).is_none());
    }

    #[test]
    fn distinct_sizes_seed_the_allocator() {
        let cfg = Configuration::from_str(XML).unwrap();
        assert_eq!(cfg.registry().distinct_byte_sizes(), vec![64, 1024]);
    }

    #[test]
    fn interns_user_events_but_not_builtins() {
        let cfg = Configuration::from_str(XML).unwrap();
        let reg = cfg.registry();
        assert_eq!(reg.event_count(), 2, "dedup + skip end-of-iteration");
        let snap = reg.event_id("user-snapshot").unwrap();
        assert_eq!(reg.event_name(snap), "user-snapshot");
        assert!(reg.event_id("end-of-iteration").is_none());
        assert!(reg.event_id("undeclared").is_none());
    }
}
