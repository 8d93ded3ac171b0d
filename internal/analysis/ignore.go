package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// directivePrefix introduces every uopslint comment directive. Directive
// comments have no space after the slashes (the Go directive convention),
// so gofmt leaves them alone and go/doc strips them from package docs.
const directivePrefix = "//uopslint:"

// An ignoreDirective is one parsed //uopslint:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	file     string
	line     int  // line the comment is on
	ownLine  bool // nothing but whitespace precedes the comment on its line
	analyzer string
	reason   string
	bad      string // non-empty: why the directive is malformed
}

// appliesTo reports whether the directive suppresses findings of the named
// analyzer on the given file line. A trailing directive covers its own
// line; a directive alone on a line covers the following line.
func (d *ignoreDirective) appliesTo(analyzer, file string, line int) bool {
	if d.bad != "" || d.analyzer != analyzer || d.file != file {
		return false
	}
	if d.ownLine {
		return line == d.line+1
	}
	return line == d.line
}

// parseIgnores extracts every //uopslint:ignore directive from the files.
// src maps filename to file content and is used to decide whether a
// directive stands alone on its line (and therefore applies to the next
// line) or trails code (and applies to its own line). known is the set of
// analyzer names a directive may legally name.
func parseIgnores(fset *token.FileSet, files []*ast.File, src map[string][]byte, known map[string]bool) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix+"ignore") {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix+"ignore")
				pos := fset.Position(c.Pos())
				d := &ignoreDirective{
					pos:     c.Pos(),
					file:    pos.Filename,
					line:    pos.Line,
					ownLine: onOwnLine(src[pos.Filename], pos),
				}
				switch fields := strings.Fields(rest); {
				case rest != "" && !strings.HasPrefix(rest, " "):
					// e.g. //uopslint:ignoreme — not our directive at all.
					continue
				case len(fields) == 0:
					d.bad = "missing analyzer name and reason"
				case !known[fields[0]]:
					d.bad = fmt.Sprintf("unknown analyzer %q (known: %s)", fields[0], knownList(known))
				case len(fields) == 1:
					d.analyzer = fields[0]
					d.bad = "missing reason: write //uopslint:ignore " + fields[0] + " <why this is safe>"
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// onOwnLine reports whether only whitespace precedes the byte at pos on
// its line. With no source available it conservatively answers false, so
// the directive then only covers its own line.
func onOwnLine(src []byte, pos token.Position) bool {
	if src == nil || pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - pos.Column + 1; i < pos.Offset && i >= 0 && i < len(src); i++ {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}

func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
