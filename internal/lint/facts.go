package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// FuncID identifies one function across the whole program. It is the
// type-checker's fully qualified name — "pkg/path.Func" for a package
// function, "(*pkg/path.Recv).Method" for a method — so the same
// function gets the same ID no matter which package's facts mention it.
type FuncID string

// Fact is a bitmask of per-function properties phase 1 records directly
// and phase 2 propagates over the call graph.
type Fact uint32

const (
	// FactWallClock: the function reads or waits on the wall clock
	// (time.Now, time.Sleep, timer constructors, ...).
	FactWallClock Fact = 1 << iota
	// FactGlobalRand: the function draws from math/rand's process-global
	// stream.
	FactGlobalRand
	// FactGoroutine: the function spawns a goroutine.
	FactGoroutine
	// FactChan: the function performs a channel operation (send,
	// receive, select, range over channel).
	FactChan
	// FactBlocking marks a long-running simulation entry point
	// (//gmt:blocking directive): a call that executes simulations and
	// must never happen while holding a serving-layer mutex.
	FactBlocking
	// FactHot marks a hotalloc root (//gmt:hotpath directive): a
	// function gated at 0 allocs/op by the benchmark alloc gates.
	FactHot
	// FactCold marks a hotalloc traversal barrier (//gmt:coldpath
	// directive): a slow path statically reachable from a hot root that
	// is amortized or off the gated steady state.
	FactCold
	// FactDetRoot marks an explicit determinism root (//gmt:detroot
	// directive), in addition to the configured root package set.
	FactDetRoot
	// FactRequestRoot marks an explicit request-path root
	// (//gmt:requestroot directive), in addition to HTTP-handler-shaped
	// functions in the configured serve packages.
	FactRequestRoot
)

// taintFacts are the fact bits detflow treats as determinism taint.
const taintFacts = FactWallClock | FactGlobalRand | FactGoroutine | FactChan

// transitiveFacts are the bits propagated over call edges; marker bits
// (hot/cold/roots) describe a single function and do not spread.
const transitiveFacts = taintFacts | FactBlocking

var factNames = []struct {
	bit  Fact
	name string
}{
	{FactWallClock, "wallclock"},
	{FactGlobalRand, "globalrand"},
	{FactGoroutine, "goroutine"},
	{FactChan, "chan"},
	{FactBlocking, "blocking"},
	{FactHot, "hotpath"},
	{FactCold, "coldpath"},
	{FactDetRoot, "detroot"},
	{FactRequestRoot, "requestroot"},
}

func (f Fact) String() string {
	var parts []string
	for _, fn := range factNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Alloc site kinds recorded by the collector for hotalloc.
const (
	AllocClosure   = "closure"   // capturing function literal
	AllocMake      = "make"      // make(map/slice/chan) or new(T)
	AllocComposite = "composite" // &T{...}, []T{...}, map literal
	AllocAppend    = "append"    // append into a function-local slice
	AllocBox       = "box"       // interface boxing of a non-pointer value
)

// Site is one fact-evidencing source position inside a function: a
// determinism-taint site (Fact set), an allocation site (Kind set), or
// a context mint (neither; see FuncFacts.Mints).
type Site struct {
	Fact Fact           `json:"fact,omitempty"`
	Kind string         `json:"kind,omitempty"`
	Pos  token.Position `json:"pos"`
	Msg  string         `json:"msg"`
	// Guarded marks a context mint sitting inside an `if ctx == nil`
	// default — the sanctioned nil-guard idiom ctxflow does not flag.
	Guarded bool `json:"guarded,omitempty"`
}

// Edge kinds.
const (
	// EdgeStatic is a direct call to a known function or concrete
	// method.
	EdgeStatic = "static"
	// EdgeRef is a reference to a function outside call position (a
	// function value); the referent may be called later, so taint
	// propagation follows it.
	EdgeRef = "ref"
	// EdgeIface is a call through an interface method; phase 2 links it
	// to every concrete method in the program with the same name and
	// signature.
	EdgeIface = "iface"
)

// Edge is one outgoing call-graph edge of a function.
type Edge struct {
	Kind   string         `json:"kind"`
	Callee FuncID         `json:"callee,omitempty"` // static/ref
	Method string         `json:"method,omitempty"` // iface
	Sig    string         `json:"sig,omitempty"`    // iface: receiver-less signature
	Pos    token.Position `json:"pos"`
	// Locked marks a call made while a sync.Mutex/RWMutex is held in
	// the caller.
	Locked bool `json:"locked,omitempty"`
}

// FuncFacts is everything phase 1 records about one function. The
// struct is JSON-serializable so per-package fact sets can be cached
// between runs (phase 1 is per-package and incremental; only phase 2 is
// whole-program).
type FuncFacts struct {
	ID   FuncID `json:"id"`
	Pkg  string `json:"pkg"`  // import path
	Name string `json:"name"` // display name, e.g. (*Runtime).Access

	File     string `json:"file"`
	Line     int    `json:"line"`
	StartOff int    `json:"start"`
	EndOff   int    `json:"end"`

	Flags  Fact `json:"flags,omitempty"`
	HasCtx bool `json:"has_ctx,omitempty"`
	// ReqRoot marks HTTP-handler-shaped functions
	// (func(http.ResponseWriter, *http.Request)); combined with the
	// configured serve package set they are ctxflow roots.
	ReqRoot bool `json:"req_root,omitempty"`

	// Method/Sig are set for concrete methods and used to resolve
	// interface edges: an iface edge links to every method with the
	// same name and receiver-less signature.
	Method string `json:"method,omitempty"`
	Sig    string `json:"sig,omitempty"`

	Sites  []Site `json:"sites,omitempty"`  // determinism-taint sites
	Allocs []Site `json:"allocs,omitempty"` // allocation sites
	Mints  []Site `json:"mints,omitempty"`  // context.Background/TODO sites
	Calls  []Edge `json:"calls,omitempty"`
}

// FactsVersion is the serialization format version; Decode rejects
// anything else so stale caches regenerate instead of mis-parsing.
const FactsVersion = "gmtlint-facts/v1"

// PackageFacts is the phase-1 output for one package.
type PackageFacts struct {
	Version string       `json:"version"`
	Path    string       `json:"path"`
	Funcs   []*FuncFacts `json:"funcs"`
}

// Encode serializes the fact set for caching.
func (pf *PackageFacts) Encode() ([]byte, error) {
	pf.Version = FactsVersion
	return json.MarshalIndent(pf, "", " ")
}

// DecodeFacts parses a serialized fact set, rejecting unknown versions.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("lint: decoding facts: %w", err)
	}
	if pf.Version != FactsVersion {
		return nil, fmt.Errorf("lint: facts version %q, want %q", pf.Version, FactsVersion)
	}
	return &pf, nil
}

// FactsFingerprint hashes a package's source (file names and contents)
// to key the phase-1 fact cache: same sources, same facts.
func FactsFingerprint(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
