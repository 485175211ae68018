package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerRawWire flags ad-hoc serialization of the solver's core types —
// anything defined in internal/prob or internal/qos — through encoding/json,
// encoding/gob, or encoding/binary outside internal/wire. Those encoders
// have no format version, no shape/content fingerprint, and no checksum, so
// bytes they produce cannot cross the dist worker boundary (DESIGN.md §15,
// §16): a coordinator receiving them could neither detect codec drift nor
// prove the payload is the problem it claims to be. Bytes that travel
// between processes go through the versioned wire codec; human-facing JSON
// (an HTTP demo front end, an operator stats dump) stays legitimate behind a
// reasoned suppression, which doubles as documentation that those bytes are
// for eyeballs, not for another process to decode.
var AnalyzerRawWire = &Analyzer{
	Name:     "rawwire",
	Doc:      "ad-hoc json/gob/binary serialization of prob or qos types outside internal/wire",
	Severity: Warning,
	Run:      runRawWire,
}

// rawWireRestrictedPkgs are the package-path suffixes whose named types must
// only be serialized by the wire codec.
var rawWireRestrictedPkgs = []string{"internal/prob", "internal/qos"}

// rawWireExempt lists the package-path suffixes allowed to serialize them:
// the codec itself (internal/prob hosts the EncodeWire/Decode* walks, built
// on internal/wire primitives).
var rawWireExempt = []string{"internal/wire", "internal/prob"}

// rawWireCalls maps encoder package path → function name → index of the
// payload argument to inspect.
var rawWireCalls = map[string]map[string]int{
	"encoding/json": {
		"Marshal": 0, "MarshalIndent": 0, "Unmarshal": 1,
		"Encode": 0, "Decode": 0, // (*Encoder).Encode / (*Decoder).Decode
	},
	"encoding/gob": {
		"Encode": 0, "Decode": 0, "EncodeValue": 0, "DecodeValue": 0,
	},
	"encoding/binary": {
		"Write": 2, "Read": 2,
	},
}

func runRawWire(p *Pass) {
	if p.Info == nil {
		return
	}
	for _, suf := range rawWireExempt {
		if pkgPathHasSuffix(p.Pkg.ImportPath, suf) {
			return
		}
	}
	for _, f := range p.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			byName, ok := rawWireCalls[fn.Pkg().Path()]
			if !ok {
				return true
			}
			argIdx, ok := byName[fn.Name()]
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			payload := p.TypeOf(call.Args[argIdx])
			if name := rawWireRestrictedIn(payload, map[types.Type]bool{}); name != "" {
				p.Reportf(call.Pos(),
					"%s.%s on %s bypasses the versioned wire codec: no format version, fingerprint, or checksum survives a reload; encode durable bytes through internal/wire",
					fn.Pkg().Name(), fn.Name(), name)
			}
			return true
		})
	}
}

// rawWireRestrictedIn walks t and returns the qualified name of the first
// restricted named type it contains (fields, elements, map keys/values,
// pointers — anything the encoders would themselves reach), or "".
func rawWireRestrictedIn(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil {
			for _, suf := range rawWireRestrictedPkgs {
				if pkgPathHasSuffix(obj.Pkg().Path(), suf) {
					return obj.Pkg().Name() + "." + obj.Name()
				}
			}
		}
		return rawWireRestrictedIn(u.Underlying(), seen)
	case *types.Pointer:
		return rawWireRestrictedIn(u.Elem(), seen)
	case *types.Slice:
		return rawWireRestrictedIn(u.Elem(), seen)
	case *types.Array:
		return rawWireRestrictedIn(u.Elem(), seen)
	case *types.Map:
		if name := rawWireRestrictedIn(u.Key(), seen); name != "" {
			return name
		}
		return rawWireRestrictedIn(u.Elem(), seen)
	case *types.Chan:
		return rawWireRestrictedIn(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := rawWireRestrictedIn(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	}
	return ""
}
