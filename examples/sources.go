// Package examples holds the example programs' MiniC sources, embedded
// so that the named scenarios build wherever a binary runs.
package examples

import "embed"

// Sources holds every <example>/<module>.mc.
//
//go:embed */*.mc
var Sources embed.FS
