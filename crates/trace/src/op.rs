use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

/// Whether a method belongs to the application under analysis or to a
/// library/framework whose internals SherLock cannot see.
///
/// The distinction matters for the Read-Acquire & Write-Release property
/// (paper §2): an *application* method's entry can only acquire and its exit
/// can only release, because SherLock observes the code inside. A *library*
/// API is opaque — its call site may release (e.g. `Thread::Start`) and its
/// return may acquire (e.g. `WaitHandle::WaitOne`) — so both roles stay open,
/// restrained by the Single-Role constraint instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodKind {
    /// A method whose body is instrumented (application code).
    App,
    /// A library or framework API traced at its call sites.
    Lib,
}

/// The shape of a static operation without its names: which of the four
/// [`OpRef`] variants it is, and for methods whether it is App or Lib.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A heap-field read.
    FieldRead,
    /// A heap-field write.
    FieldWrite,
    /// A method entry or library call site (before the call).
    MethodBegin(MethodKind),
    /// A method exit or library call site (after the call).
    MethodEnd(MethodKind),
}

impl OpKind {
    /// One-letter discriminant prefixed to an operation's printed name in
    /// its fingerprint: `r`ead, `w`rite, `a`pp or `l`ib method. The printed
    /// name alone cannot tell App from Lib method events.
    pub fn tag(self) -> char {
        match self {
            OpKind::FieldRead => 'r',
            OpKind::FieldWrite => 'w',
            OpKind::MethodBegin(MethodKind::App) | OpKind::MethodEnd(MethodKind::App) => 'a',
            OpKind::MethodBegin(MethodKind::Lib) | OpKind::MethodEnd(MethodKind::Lib) => 'l',
        }
    }

    /// The [`OpRef`] of this kind with the given names.
    fn with_names(self, class: String, member: String) -> OpRef {
        match self {
            OpKind::FieldRead => OpRef::FieldRead {
                class,
                field: member,
            },
            OpKind::FieldWrite => OpRef::FieldWrite {
                class,
                field: member,
            },
            OpKind::MethodBegin(kind) => OpRef::MethodBegin {
                class,
                method: member,
                kind,
            },
            OpKind::MethodEnd(kind) => OpRef::MethodEnd {
                class,
                method: member,
                kind,
            },
        }
    }
}

/// Static identity of a traceable operation.
///
/// SherLock identifies inference variables "with the fully-qualified type of
/// the field (i.e. `ClassName::FieldName`)" and likewise for methods
/// (paper §4.2), assuming all dynamic instances behave the same. `OpRef` is
/// that fully-qualified static name; intern it to get a compact [`OpId`].
///
/// ```
/// use sherlock_trace::OpRef;
/// let id = OpRef::field_read("ByteBuffer", "endOfFile").intern();
/// assert_eq!(id.resolve().to_string(), "Read-ByteBuffer::endOfFile");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpRef {
    /// A read of a heap field.
    FieldRead { class: String, field: String },
    /// A write to a heap field.
    FieldWrite { class: String, field: String },
    /// Entry of a method body ([`MethodKind::App`]) or the instant just
    /// before a library call site ([`MethodKind::Lib`]).
    MethodBegin {
        class: String,
        method: String,
        kind: MethodKind,
    },
    /// Exit of a method body, or the instant just after a library call.
    MethodEnd {
        class: String,
        method: String,
        kind: MethodKind,
    },
}

impl OpRef {
    /// Convenience constructor for a heap-field read.
    pub fn field_read(class: impl Into<String>, field: impl Into<String>) -> Self {
        OpRef::FieldRead {
            class: class.into(),
            field: field.into(),
        }
    }

    /// Convenience constructor for a heap-field write.
    pub fn field_write(class: impl Into<String>, field: impl Into<String>) -> Self {
        OpRef::FieldWrite {
            class: class.into(),
            field: field.into(),
        }
    }

    /// Convenience constructor for an application-method entry.
    pub fn app_begin(class: impl Into<String>, method: impl Into<String>) -> Self {
        OpRef::MethodBegin {
            class: class.into(),
            method: method.into(),
            kind: MethodKind::App,
        }
    }

    /// Convenience constructor for an application-method exit.
    pub fn app_end(class: impl Into<String>, method: impl Into<String>) -> Self {
        OpRef::MethodEnd {
            class: class.into(),
            method: method.into(),
            kind: MethodKind::App,
        }
    }

    /// Convenience constructor for a library-API call site (before the call).
    pub fn lib_begin(class: impl Into<String>, method: impl Into<String>) -> Self {
        OpRef::MethodBegin {
            class: class.into(),
            method: method.into(),
            kind: MethodKind::Lib,
        }
    }

    /// Convenience constructor for a library-API call site (after the call).
    pub fn lib_end(class: impl Into<String>, method: impl Into<String>) -> Self {
        OpRef::MethodEnd {
            class: class.into(),
            method: method.into(),
            kind: MethodKind::Lib,
        }
    }

    /// The class component of the fully-qualified name.
    ///
    /// Used by the Mostly-Paired hypothesis, which pairs acquire and release
    /// synchronizations defined in the same class (paper Eq. 6).
    pub fn class(&self) -> &str {
        match self {
            OpRef::FieldRead { class, .. }
            | OpRef::FieldWrite { class, .. }
            | OpRef::MethodBegin { class, .. }
            | OpRef::MethodEnd { class, .. } => class,
        }
    }

    /// The member (field or method) component of the name.
    pub fn member(&self) -> &str {
        match self {
            OpRef::FieldRead { field, .. } | OpRef::FieldWrite { field, .. } => field,
            OpRef::MethodBegin { method, .. } | OpRef::MethodEnd { method, .. } => method,
        }
    }

    /// The shape of this operation without its names.
    pub fn kind(&self) -> OpKind {
        match self {
            OpRef::FieldRead { .. } => OpKind::FieldRead,
            OpRef::FieldWrite { .. } => OpKind::FieldWrite,
            OpRef::MethodBegin { kind, .. } => OpKind::MethodBegin(*kind),
            OpRef::MethodEnd { kind, .. } => OpKind::MethodEnd(*kind),
        }
    }

    /// Whether this operation is a field access (as opposed to a method
    /// entry/exit).
    pub fn is_field(&self) -> bool {
        matches!(self, OpRef::FieldRead { .. } | OpRef::FieldWrite { .. })
    }

    /// Whether this operation could serve as a *release* synchronization
    /// under the Read-Acquire & Write-Release property: heap writes,
    /// application-method exits, and either end of a library call.
    pub fn can_release(&self) -> bool {
        match self {
            OpRef::FieldRead { .. } => false,
            OpRef::FieldWrite { .. } => true,
            OpRef::MethodBegin { kind, .. } => *kind == MethodKind::Lib,
            OpRef::MethodEnd { .. } => true,
        }
    }

    /// Whether this operation could serve as an *acquire* synchronization:
    /// heap reads, application-method entries, and either end of a library
    /// call.
    pub fn can_acquire(&self) -> bool {
        match self {
            OpRef::FieldRead { .. } => true,
            OpRef::FieldWrite { .. } => false,
            OpRef::MethodBegin { .. } => true,
            OpRef::MethodEnd { kind, .. } => *kind == MethodKind::Lib,
        }
    }

    /// The `OpRef` for the matching end of a method pair: `Begin ↔ End`.
    /// Returns `None` for field accesses.
    pub fn method_counterpart(&self) -> Option<OpRef> {
        match self {
            OpRef::MethodBegin {
                class,
                method,
                kind,
            } => Some(OpRef::MethodEnd {
                class: class.clone(),
                method: method.clone(),
                kind: *kind,
            }),
            OpRef::MethodEnd {
                class,
                method,
                kind,
            } => Some(OpRef::MethodBegin {
                class: class.clone(),
                method: method.clone(),
                kind: *kind,
            }),
            _ => None,
        }
    }

    /// The counterpart field access: `Read ↔ Write` of the same field.
    /// Returns `None` for methods.
    pub fn field_counterpart(&self) -> Option<OpRef> {
        match self {
            OpRef::FieldRead { class, field } => Some(OpRef::FieldWrite {
                class: class.clone(),
                field: field.clone(),
            }),
            OpRef::FieldWrite { class, field } => Some(OpRef::FieldRead {
                class: class.clone(),
                field: field.clone(),
            }),
            _ => None,
        }
    }

    /// Interns this operation in the process-wide registry, returning its
    /// compact id. Interning the same `OpRef` twice yields the same id.
    pub fn intern(&self) -> OpId {
        OpId::intern(self.kind(), self.class(), self.member())
    }
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpRef::FieldRead { class, field } => write!(f, "Read-{class}::{field}"),
            OpRef::FieldWrite { class, field } => write!(f, "Write-{class}::{field}"),
            OpRef::MethodBegin { class, method, .. } => write!(f, "{class}::{method}-Begin"),
            OpRef::MethodEnd { class, method, .. } => write!(f, "{class}::{method}-End"),
        }
    }
}

/// Compact, process-wide-unique identifier for an interned [`OpRef`].
///
/// Every dynamic instance of the same static operation shares one `OpId`,
/// which is what lets SherLock accumulate observations for the same inference
/// variable within a run and across runs (paper §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(u32);

impl OpId {
    /// Interns the operation `kind` of `class::member` without building an
    /// [`OpRef`]: a name seen before is found by borrowing `class` and
    /// `member`, and only a new name is copied into the registry.
    ///
    /// ```
    /// use sherlock_trace::{MethodKind, OpId, OpKind, OpRef};
    /// let id = OpId::intern(OpKind::MethodBegin(MethodKind::Lib), "Monitor", "Enter");
    /// assert_eq!(id, OpRef::lib_begin("Monitor", "Enter").intern());
    /// ```
    pub fn intern(kind: OpKind, class: &str, member: &str) -> OpId {
        registry().intern(kind, class, member)
    }

    /// The raw index of this id in the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Looks up the full static name of this operation.
    pub fn resolve(self) -> OpRef {
        self.with_resolved(OpRef::clone)
    }

    /// The shape of this operation, without copying its names.
    pub fn kind(self) -> OpKind {
        self.with_resolved(OpRef::kind)
    }

    /// Calls `f` on this operation's static name, borrowed from the
    /// registry. `f` runs under the registry lock, so it must not intern or
    /// resolve operations itself.
    pub fn with_resolved<R>(self, f: impl FnOnce(&OpRef) -> R) -> R {
        f(&registry().read().slots[self.index()].op)
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpId({} = {})", self.0, self.resolve())
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

struct Registry {
    inner: RwLock<RegistryInner>,
}

/// One interned operation.
struct Slot {
    op: OpRef,
    /// [`name_fingerprint`] of `op`, computed once at interning.
    fingerprint: u64,
    /// Next slot whose lookup key hashes like this one's, or [`NO_SLOT`].
    next: u32,
}

const NO_SLOT: u32 = u32::MAX;

/// The registry stores each name once, in `slots`. `index` maps a lookup
/// hash of `(kind, class, member)` to the newest slot with that hash; slots
/// sharing a hash are chained through [`Slot::next`]. A lookup therefore
/// borrows the caller's names and allocates nothing on a hit.
#[derive(Default)]
struct RegistryInner {
    index: IdMap<u64, u32>,
    slots: Vec<Slot>,
}

impl RegistryInner {
    fn find(&self, key: u64, kind: OpKind, class: &str, member: &str) -> Option<OpId> {
        let mut at = *self.index.get(&key)?;
        while at != NO_SLOT {
            let slot = &self.slots[at as usize];
            if slot.op.kind() == kind && slot.op.class() == class && slot.op.member() == member {
                return Some(OpId(at));
            }
            at = slot.next;
        }
        None
    }
}

impl Registry {
    fn intern(&self, kind: OpKind, class: &str, member: &str) -> OpId {
        let key = lookup_key(kind, class, member);
        // The read guard must drop before `insert` takes the write lock.
        let found = self.read().find(key, kind, class, member);
        found.unwrap_or_else(|| self.insert(key, kind, class, member))
    }

    /// Adds a name the read-locked lookup missed (unless another thread
    /// added it first). Out of line: it runs once per distinct operation.
    #[cold]
    #[inline(never)]
    fn insert(&self, key: u64, kind: OpKind, class: &str, member: &str) -> OpId {
        let mut inner = self.inner.write().expect("op registry poisoned");
        if let Some(id) = inner.find(key, kind, class, member) {
            return id;
        }
        let id = u32::try_from(inner.slots.len())
            .ok()
            .filter(|&i| i != NO_SLOT)
            .expect("op registry overflow");
        let op = kind.with_names(class.to_owned(), member.to_owned());
        let fingerprint = name_fingerprint(&op);
        let next = inner.index.insert(key, id).unwrap_or(NO_SLOT);
        inner.slots.push(Slot {
            op,
            fingerprint,
            next,
        });
        OpId(id)
    }

    fn read(&self) -> RwLockReadGuard<'_, RegistryInner> {
        self.inner.read().expect("op registry poisoned")
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: RwLock::new(RegistryInner::default()),
    })
}

/// The stable 64-bit fingerprint of an operation's name: FNV-1a over the
/// UTF-8 bytes of the kind tag ([`OpKind::tag`]) followed by the
/// [`Display`](fmt::Display) form, e.g. `"rRead-Buffer::ready"` or
/// `"lMonitor::Enter-Begin"`. It depends on the name alone, never on
/// interning order, so it agrees across processes.
fn name_fingerprint(op: &OpRef) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    format!("{}{op}", op.kind().tag())
        .bytes()
        .fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
}

/// In-process lookup hash of an operation's parts, folded a word at a time.
/// Only [`RegistryInner::index`] uses it; it is not stable and never leaves
/// the process.
fn lookup_key(kind: OpKind, class: &str, member: &str) -> u64 {
    let mut h = IdHasher::default();
    h.write_u32(u32::from(kind.tag()));
    for s in [class, member] {
        let mut words = s.as_bytes().chunks_exact(8);
        for w in &mut words {
            h.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        h.write_u64(u64::from_le_bytes(tail));
        h.write_u64(s.len() as u64);
    }
    h.finish()
}

/// Multiplicative (FxHash-style) hasher for maps keyed by [`OpId`]s and
/// other small integers, looked up on per-event and per-step paths where
/// SipHash would dominate. Not flooding-resistant: use it only for keys the
/// program makes itself.
#[derive(Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Read access to every interned operation's fingerprint under one registry
/// lock, for hashing a whole trace (see [`crate::Trace::stable_hash`]).
pub(crate) struct Fingerprints(RwLockReadGuard<'static, RegistryInner>);

impl Fingerprints {
    /// Takes the registry lock until the value is dropped. Nothing may intern
    /// while it is held on the same thread.
    pub(crate) fn lock() -> Self {
        Fingerprints(registry().read())
    }

    /// The fingerprint of `op`'s name.
    pub(crate) fn of(&self, op: OpId) -> u64 {
        self.0.slots[op.index()].fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = OpRef::field_read("C", "f").intern();
        let b = OpRef::field_read("C", "f").intern();
        assert_eq!(a, b);
        assert_eq!(a.resolve(), OpRef::field_read("C", "f"));
    }

    #[test]
    fn borrowed_lookup_matches_owned_interning() {
        let id = OpId::intern(OpKind::FieldWrite, "Borrow", "f");
        assert_eq!(id, OpRef::field_write("Borrow", "f").intern());
        assert_eq!(id.kind(), OpKind::FieldWrite);
        // The same names under another kind are another op.
        assert_ne!(id, OpId::intern(OpKind::FieldRead, "Borrow", "f"));
        let app = OpId::intern(OpKind::MethodBegin(MethodKind::App), "Borrow", "f");
        let lib = OpId::intern(OpKind::MethodBegin(MethodKind::Lib), "Borrow", "f");
        assert_ne!(app, lib);
        assert_eq!(lib.resolve(), OpRef::lib_begin("Borrow", "f"));
    }

    #[test]
    fn lookup_key_collisions_chain() {
        // A private registry whose two names share one lookup key.
        let reg = Registry {
            inner: RwLock::new(RegistryInner::default()),
        };
        let a = reg.insert(7, OpKind::FieldRead, "Chain", "a");
        let b = reg.insert(7, OpKind::FieldRead, "Chain", "b");
        assert_ne!(a, b);
        let inner = reg.read();
        assert_eq!(inner.find(7, OpKind::FieldRead, "Chain", "a"), Some(a));
        assert_eq!(inner.find(7, OpKind::FieldRead, "Chain", "b"), Some(b));
        assert_eq!(inner.find(7, OpKind::FieldRead, "Chain", "c"), None);
        assert_eq!(inner.find(8, OpKind::FieldRead, "Chain", "a"), None);
        drop(inner);
        // Re-inserting a present name returns its id.
        assert_eq!(reg.insert(7, OpKind::FieldRead, "Chain", "a"), a);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..200).map(|i| format!("m{i}")).collect();
        let ids: Vec<Vec<OpId>> = std::thread::scope(|s| {
            let workers: Vec<_> = [1, 3, 7, 9]
                .into_iter()
                .map(|stride| {
                    let names = &names;
                    s.spawn(move || {
                        // Each worker walks the names in its own order (strides
                        // coprime to 200 visit every name).
                        let mut out = vec![OpRef::field_read("C", "f").intern(); names.len()];
                        for k in 0..names.len() {
                            let i = (k * stride) % names.len();
                            out[i] =
                                OpId::intern(OpKind::MethodEnd(MethodKind::App), "Conc", &names[i]);
                        }
                        out
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        for (name, id) in names.iter().zip(&ids[0]) {
            assert_eq!(id.resolve(), OpRef::app_end("Conc", name.as_str()));
        }
    }

    #[test]
    fn distinct_ops_get_distinct_ids() {
        let r = OpRef::field_read("C", "g").intern();
        let w = OpRef::field_write("C", "g").intern();
        let mb = OpRef::app_begin("C", "g").intern();
        let me = OpRef::app_end("C", "g").intern();
        let lb = OpRef::lib_begin("C", "g").intern();
        assert_eq!(
            [r, w, mb, me, lb]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            5
        );
    }

    #[test]
    fn read_acquire_write_release_property() {
        assert!(OpRef::field_read("C", "f").can_acquire());
        assert!(!OpRef::field_read("C", "f").can_release());
        assert!(OpRef::field_write("C", "f").can_release());
        assert!(!OpRef::field_write("C", "f").can_acquire());
    }

    #[test]
    fn app_methods_have_fixed_roles() {
        assert!(OpRef::app_begin("C", "m").can_acquire());
        assert!(!OpRef::app_begin("C", "m").can_release());
        assert!(OpRef::app_end("C", "m").can_release());
        assert!(!OpRef::app_end("C", "m").can_acquire());
    }

    #[test]
    fn lib_apis_keep_both_roles_open() {
        assert!(OpRef::lib_begin("Thread", "Start").can_release());
        assert!(OpRef::lib_begin("Monitor", "Enter").can_acquire());
        assert!(OpRef::lib_end("WaitHandle", "WaitOne").can_acquire());
        assert!(OpRef::lib_end("Monitor", "Exit").can_release());
    }

    #[test]
    fn counterparts() {
        let read = OpRef::field_read("C", "f");
        assert_eq!(read.field_counterpart(), Some(OpRef::field_write("C", "f")));
        assert_eq!(read.method_counterpart(), None);
        let begin = OpRef::app_begin("C", "m");
        assert_eq!(begin.method_counterpart(), Some(OpRef::app_end("C", "m")));
        assert_eq!(begin.field_counterpart(), None);
    }

    #[test]
    fn display_matches_paper_table_format() {
        assert_eq!(
            OpRef::field_write("k8s.ByteBuffer", "endOfFile").to_string(),
            "Write-k8s.ByteBuffer::endOfFile"
        );
        assert_eq!(
            OpRef::app_end("AssertionScope", ".cctor").to_string(),
            "AssertionScope::.cctor-End"
        );
        assert_eq!(
            OpRef::lib_begin("System.Threading.Monitor", "Enter").to_string(),
            "System.Threading.Monitor::Enter-Begin"
        );
    }

    #[test]
    fn class_and_member_accessors() {
        let op = OpRef::app_begin("MessageBroker", "Broadcast");
        assert_eq!(op.class(), "MessageBroker");
        assert_eq!(op.member(), "Broadcast");
        assert!(!op.is_field());
        assert!(OpRef::field_read("A", "b").is_field());
    }
}
