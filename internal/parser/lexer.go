// Package parser implements the surface language of the toolkit: a
// textual syntax for history expressions, usage-automata policies, policy
// instances, service repositories and clients with plans. The CLI
// (cmd/susc) and the examples consume it.
//
// A source file is a sequence of declarations:
//
//	policy phi(bl set, p int, t int) {
//	  states q1 q2 q3 q4 q5 q6;
//	  start q1;
//	  final q6;
//	  edge q1 -> q2 on sgn(x) when x notin bl;
//	  edge q2 -> q4 on price(y) when y > p;
//	  edge q4 -> q6 on rating(z) when z < t;
//	}
//
//	instance phi1 = phi(bl = {s1}, p = 45, t = 100);
//
//	service br = Req? . open r3 { IdC! . (Bok? + UnA?) } .
//	             (CoBo! . Pay? (+) NoAv!);
//
//	client c1 at c1 plan { r1 -> br, r3 -> s3 } =
//	    open r1 with phi1 { Req! . (CoBo? . Pay! + NoAv?) };
//
// Expression syntax (loosest to tightest): mu-recursion `mu h . E`,
// choices `E + E` (external) and `E (+) E` (internal), sequencing
// `E . E`, and atoms: `eps`, events `name(args)`, channel actions `a?`
// and `a!`, requests `open r [with phi] { E }`, framings
// `enforce phi { E }`, parentheses, and `//` line comments.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token kinds.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokLParen // (
	tokRParen // )
	tokLBrace // {
	tokRBrace // }
	tokDot    // .
	tokComma  // ,
	tokSemi   // ;
	tokPlus   // +
	tokOPlus  // (+)
	tokQuery  // ?
	tokBang   // !
	tokArrow  // ->
	tokAssign // =
	tokEq     // ==
	tokNe     // !=
	tokLe     // <=
	tokLt     // <
	tokGe     // >=
	tokGt     // >
	tokStar   // *
	tokColon  // :
	tokBar    // |
	tokDArrow // =>
	tokQuote  // '
	tokLEff   // -[
	tokREff   // ]->
	tokLBrack // [
	tokRBrack // ]
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokDot:
		return "'.'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokPlus:
		return "'+'"
	case tokOPlus:
		return "'(+)'"
	case tokQuery:
		return "'?'"
	case tokBang:
		return "'!'"
	case tokArrow:
		return "'->'"
	case tokAssign:
		return "'='"
	case tokEq:
		return "'=='"
	case tokNe:
		return "'!='"
	case tokLe:
		return "'<='"
	case tokLt:
		return "'<'"
	case tokGe:
		return "'>='"
	case tokGt:
		return "'>'"
	case tokStar:
		return "'*'"
	case tokColon:
		return "':'"
	case tokBar:
		return "'|'"
	case tokDArrow:
		return "'=>'"
	case tokQuote:
		return "quote"
	case tokLEff:
		return "'-['"
	case tokREff:
		return "']->'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokIdent || t.kind == tokInt {
		return fmt.Sprintf("%s %q", t.kind, t.text)
	}
	return t.kind.String()
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parser: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lex tokenizes the input. The only lookahead subtlety is "(+)", which is
// recognised eagerly before "(".
func lex(src string) ([]token, error) {
	// The fixtures hold 2.5 to 6.3 bytes per token, so room for a token
	// per two bytes fits them all without the append ladder, which was
	// more than half of what parsing a spec allocated.
	toks := make([]token, 0, len(src)/2+1)
	line, col := 1, 1
	i := 0
	emit := func(kind tokenKind, text string) {
		toks = append(toks, token{kind: kind, text: text, line: line, col: col})
	}
	// advance consumes n bytes, counting columns in runes so positions
	// stay editor-accurate on multi-byte (UTF-8) input.
	advance := func(n int) {
		for j := 0; j < n; {
			if src[i+j] == '\n' {
				line++
				col = 1
				j++
				continue
			}
			_, size := utf8.DecodeRuneInString(src[i+j : i+n])
			col++
			j += size
		}
		i += n
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}
		case strings.HasPrefix(src[i:], "(+)"):
			emit(tokOPlus, "(+)")
			advance(3)
		case c == '(':
			emit(tokLParen, "(")
			advance(1)
		case c == ')':
			emit(tokRParen, ")")
			advance(1)
		case c == '{':
			emit(tokLBrace, "{")
			advance(1)
		case c == '}':
			emit(tokRBrace, "}")
			advance(1)
		case c == '.':
			emit(tokDot, ".")
			advance(1)
		case c == ',':
			emit(tokComma, ",")
			advance(1)
		case c == ';':
			emit(tokSemi, ";")
			advance(1)
		case c == '+':
			emit(tokPlus, "+")
			advance(1)
		case c == '?':
			emit(tokQuery, "?")
			advance(1)
		case c == '*':
			emit(tokStar, "*")
			advance(1)
		case strings.HasPrefix(src[i:], "=>"):
			emit(tokDArrow, "=>")
			advance(2)
		case strings.HasPrefix(src[i:], "-["):
			emit(tokLEff, "-[")
			advance(2)
		case strings.HasPrefix(src[i:], "]->"):
			emit(tokREff, "]->")
			advance(3)
		case strings.HasPrefix(src[i:], "->"):
			emit(tokArrow, "->")
			advance(2)
		case strings.HasPrefix(src[i:], "=="):
			emit(tokEq, "==")
			advance(2)
		case strings.HasPrefix(src[i:], "!="):
			emit(tokNe, "!=")
			advance(2)
		case strings.HasPrefix(src[i:], "<="):
			emit(tokLe, "<=")
			advance(2)
		case strings.HasPrefix(src[i:], ">="):
			emit(tokGe, ">=")
			advance(2)
		case c == '=':
			emit(tokAssign, "=")
			advance(1)
		case c == '!':
			emit(tokBang, "!")
			advance(1)
		case c == ':':
			emit(tokColon, ":")
			advance(1)
		case c == '|':
			emit(tokBar, "|")
			advance(1)
		case c == '\'':
			emit(tokQuote, "'")
			advance(1)
		case c == '[':
			emit(tokLBrack, "[")
			advance(1)
		case c == ']':
			emit(tokRBrack, "]")
			advance(1)
		case c == '<':
			emit(tokLt, "<")
			advance(1)
		case c == '>':
			emit(tokGt, ">")
			advance(1)
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			emit(tokInt, src[i:j])
			advance(j - i)
		default:
			r, size := utf8.DecodeRuneInString(src[i:])
			if !unicode.IsLetter(r) && r != '_' {
				return nil, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", r)}
			}
			j := i + size
			for j < len(src) {
				r2, s2 := utf8.DecodeRuneInString(src[j:])
				if !unicode.IsLetter(r2) && !unicode.IsDigit(r2) && r2 != '_' {
					break
				}
				j += s2
			}
			emit(tokIdent, src[i:j])
			advance(j - i)
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}
