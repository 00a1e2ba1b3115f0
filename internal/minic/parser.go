package minic

import "fmt"

type parser struct {
	file string
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", p.file, line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.cur()
	if t.kind != tPunct || t.text != s {
		return p.errf(t.line, "expected %q, got %q", s, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}

func (p *parser) isKeyword(s string) bool {
	return p.cur().kind == tKeyword && p.cur().text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

// parse parses a whole translation unit.
func parse(file string, toks []token) (*program, error) {
	p := &parser{file: file, toks: toks}
	prog := &program{}
	for p.cur().kind != tEOF {
		switch {
		case p.isKeyword("extern"):
			d, err := p.parseExtern()
			if err != nil {
				return nil, err
			}
			prog.externs = append(prog.externs, d)
		case p.isKeyword("int"):
			line := p.cur().line
			p.advance()
			name := p.cur()
			if name.kind != tIdent {
				return nil, p.errf(name.line, "expected identifier after 'int'")
			}
			p.advance()
			if p.isPunct("(") {
				fn, err := p.parseFunc(name.text, line)
				if err != nil {
					return nil, err
				}
				prog.funcs = append(prog.funcs, fn)
			} else {
				gs, err := p.parseGlobalRest(name.text, line)
				if err != nil {
					return nil, err
				}
				prog.globals = append(prog.globals, gs...)
			}
		default:
			return nil, p.errf(p.cur().line, "expected declaration, got %q", p.cur().text)
		}
	}
	return prog, nil
}

func (p *parser) parseExtern() (*externDecl, error) {
	line := p.cur().line
	p.advance() // extern
	mod := ""
	if p.cur().kind == tStr {
		mod = p.advance().text
	}
	if !p.isKeyword("int") {
		return nil, p.errf(p.cur().line, "expected 'int' in extern declaration")
	}
	p.advance()
	name := p.cur()
	if name.kind != tIdent {
		return nil, p.errf(name.line, "expected extern function name")
	}
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// Skip the parameter list (names and types are documentation).
	depth := 1
	for depth > 0 {
		t := p.advance()
		if t.kind == tEOF {
			return nil, p.errf(line, "unterminated extern declaration")
		}
		if t.kind == tPunct && t.text == "(" {
			depth++
		}
		if t.kind == tPunct && t.text == ")" {
			depth--
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &externDecl{module: mod, name: name.text, line: line}, nil
}

// parseGlobalRest parses "name [N]? (, name [N]?)* ;" after "int name".
func (p *parser) parseGlobalRest(first string, line int) ([]*globalDecl, error) {
	var out []*globalDecl
	name := first
	for {
		size := 1
		if p.acceptPunct("[") {
			t := p.cur()
			if t.kind != tNum || t.num <= 0 {
				return nil, p.errf(t.line, "array size must be a positive constant")
			}
			size = int(t.num)
			p.advance()
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
		}
		out = append(out, &globalDecl{name: name, size: size, line: line})
		if p.acceptPunct(",") {
			t := p.cur()
			if t.kind != tIdent {
				return nil, p.errf(t.line, "expected identifier")
			}
			name = t.text
			p.advance()
			continue
		}
		return out, p.expectPunct(";")
	}
}

func (p *parser) parseFunc(name string, line int) (*funcDecl, error) {
	fn := &funcDecl{name: name, line: line}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.isPunct(")") {
		if len(fn.params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		if !p.isKeyword("int") {
			return nil, p.errf(p.cur().line, "expected 'int' parameter type")
		}
		p.advance()
		t := p.cur()
		if t.kind != tIdent {
			return nil, p.errf(t.line, "expected parameter name")
		}
		fn.params = append(fn.params, t.text)
		p.advance()
	}
	p.advance() // ')'
	if len(fn.params) > 4 {
		return nil, p.errf(line, "function %s has %d parameters; max 4", name, len(fn.params))
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.body = body
	return fn, nil
}

func (p *parser) parseBlock() (*blockStmt, error) {
	line := p.cur().line
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &blockStmt{line: line}
	for !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf(line, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
	p.advance()
	return b, nil
}

func (p *parser) parseStmt() (stmt, error) {
	t := p.cur()
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isKeyword("int"):
		p.advance()
		name := p.cur()
		if name.kind != tIdent {
			return nil, p.errf(name.line, "expected local variable name")
		}
		p.advance()
		d := &localDecl{name: name.text, size: 1, line: t.line}
		if p.acceptPunct("[") {
			n := p.cur()
			if n.kind != tNum || n.num <= 0 {
				return nil, p.errf(n.line, "array size must be a positive constant")
			}
			d.size = int(n.num)
			d.array = true
			p.advance()
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
		} else if p.acceptPunct("=") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.init = e
		}
		return d, p.expectPunct(";")
	case p.isKeyword("if"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s := &ifStmt{cond: cond, then: then, line: t.line}
		if p.isKeyword("else") {
			p.advance()
			if s.els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return s, nil
	case p.isKeyword("while"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &whileStmt{cond: cond, body: body, line: t.line}, nil
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("switch"):
		return p.parseSwitch()
	case p.isKeyword("return"):
		p.advance()
		s := &returnStmt{line: t.line}
		if !p.isPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.value = e
		}
		return s, p.expectPunct(";")
	case p.isKeyword("break"):
		p.advance()
		return &breakStmt{line: t.line}, p.expectPunct(";")
	case p.isKeyword("continue"):
		p.advance()
		return &continueStmt{line: t.line}, p.expectPunct(";")
	default:
		s, err := p.parseSimple()
		if err != nil {
			return nil, err
		}
		return s, p.expectPunct(";")
	}
}

// parseSimple parses an assignment or expression statement (no
// trailing semicolon — for-loop headers share this).
func (p *parser) parseSimple() (stmt, error) {
	t := p.cur()
	if t.kind == tIdent {
		// Lookahead for "name =" or "name[expr] =".
		save := p.pos
		name := p.advance().text
		var idx expr
		if p.acceptPunct("[") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			idx = e
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
		}
		if p.acceptPunct("=") {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &assignStmt{
				target: &lvalue{name: name, index: idx, line: t.line},
				value:  v, line: t.line,
			}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &exprStmt{e: e, line: t.line}, nil
}

func (p *parser) parseFor() (stmt, error) {
	t := p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	s := &forStmt{line: t.line}
	if !p.isPunct(";") {
		if p.isKeyword("int") {
			// Declaration initializer: "for (int i = 0; ...)".
			il := p.cur().line
			p.advance()
			name := p.cur()
			if name.kind != tIdent {
				return nil, p.errf(name.line, "expected variable name")
			}
			p.advance()
			d := &localDecl{name: name.text, size: 1, line: il}
			if p.acceptPunct("=") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				d.init = e
			}
			s.init = d
		} else {
			init, err := p.parseSimple()
			if err != nil {
				return nil, err
			}
			s.init = init
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.cond = cond
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseSimple()
		if err != nil {
			return nil, err
		}
		s.post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.body = body
	return s, nil
}

func (p *parser) parseSwitch() (stmt, error) {
	t := p.advance() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	s := &switchStmt{value: v, line: t.line}
	for !p.isPunct("}") {
		switch {
		case p.isKeyword("case"):
			cl := p.cur().line
			p.advance()
			n := p.cur()
			neg := false
			if n.kind == tPunct && n.text == "-" {
				neg = true
				p.advance()
				n = p.cur()
			}
			if n.kind != tNum {
				return nil, p.errf(n.line, "case value must be a constant")
			}
			val := n.num
			if neg {
				val = -val
			}
			p.advance()
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			s.cases = append(s.cases, switchCase{val: val, stmts: body, line: cl})
		case p.isKeyword("default"):
			p.advance()
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			s.def = body
		default:
			return nil, p.errf(p.cur().line, "expected case or default in switch")
		}
	}
	p.advance()
	return s, nil
}

// parseCaseBody parses statements until the next case/default/}.
// MiniC switch cases do not fall through; an implicit break ends each
// case.
func (p *parser) parseCaseBody() ([]stmt, error) {
	var out []stmt
	for !p.isKeyword("case") && !p.isKeyword("default") && !p.isPunct("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf(p.cur().line, "unterminated switch")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Expression parsing: precedence climbing.

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (expr, error) { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			return l, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return l, nil
		}
		p.advance()
		r, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: t.text, l: l, r: r, line: t.line}
	}
}

func (p *parser) parseUnary() (expr, error) {
	t := p.cur()
	if t.kind == tPunct {
		switch t.text {
		case "-", "!", "~":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &unaryExpr{op: t.text, x: x, line: t.line}, nil
		case "&":
			p.advance()
			n := p.cur()
			if n.kind != tIdent {
				return nil, p.errf(n.line, "'&' requires a function or global name")
			}
			p.advance()
			return &addrExpr{name: n.text, line: t.line}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tNum:
		p.advance()
		return &numExpr{v: t.num, line: t.line}, nil
	case tStr:
		p.advance()
		return &strExpr{s: t.text, line: t.line}, nil
	case tIdent:
		p.advance()
		switch {
		case p.isPunct("("):
			p.advance()
			c := &callExpr{name: t.text, line: t.line}
			for !p.isPunct(")") {
				if len(c.args) > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.args = append(c.args, a)
			}
			p.advance()
			return c, nil
		case p.isPunct("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return &indexExpr{name: t.text, index: idx, line: t.line}, nil
		default:
			return &varExpr{name: t.text, line: t.line}, nil
		}
	case tPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	}
	return nil, p.errf(t.line, "unexpected token %q in expression", t.text)
}
