package lint

import "strings"

// SimPackages are the single-goroutine packages where nogoroutine
// applies and whose functions are detflow determinism roots: every
// component in them runs inside engine callbacks.
var SimPackages = map[string]bool{
	"internal/sim":  true,
	"internal/core": true,
	"internal/tier": true,
	"internal/nvme": true,
	"internal/pcie": true,
	"internal/gpu":  true,
	"internal/xfer": true,
}

// ServePackages hold the concurrent request-serving layer whose
// HTTP-handler-shaped functions are ctxflow roots.
var ServePackages = map[string]bool{
	"internal/serve": true,
}

// ModuleRel strips the module prefix from an import path, yielding the
// module-relative form the package sets are keyed by.
func ModuleRel(module, pkgPath string) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkgPath, module), "/")
}

// DefaultScope is the analyzer→package scoping the gmtlint driver
// applies; module is the module path packages are relative to. It
// covers per-package and whole-program analyzers by name.
func DefaultScope(module string) func(analyzer, pkgPath string) bool {
	return func(analyzer, pkgPath string) bool {
		rel := ModuleRel(module, pkgPath)
		switch analyzer {
		case "nogoroutine":
			return SimPackages[rel]
		case "norealtime", "detflow", "ctxflow":
			return !strings.HasPrefix(rel, "cmd/")
		default:
			return true
		}
	}
}

// DefaultDetRoot reports whether every function in the package is a
// determinism root for detflow.
func DefaultDetRoot(module string) func(pkgPath string) bool {
	return func(pkgPath string) bool { return SimPackages[ModuleRel(module, pkgPath)] }
}

// DefaultServeRoot reports whether HTTP-handler-shaped functions in the
// package are request-path roots for ctxflow.
func DefaultServeRoot(module string) func(pkgPath string) bool {
	return func(pkgPath string) bool { return ServePackages[ModuleRel(module, pkgPath)] }
}
