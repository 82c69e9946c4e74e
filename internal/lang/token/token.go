// Package token defines the lexical tokens of TJ, the Java subset that
// serves as the source language for the SafeTSA pipeline, together with
// source positions and operator precedence tables.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The token kinds. Literal kinds carry their text in Token.Lit.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT     // foo
	INTLIT    // 123
	LONGLIT   // 123L
	DOUBLELIT // 1.25
	CHARLIT   // 'c'
	STRINGLIT // "abc"

	// Operators and delimiters.
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND // &
	OR  // |
	XOR // ^
	SHL // <<
	SHR // >>

	LAND // &&
	LOR  // ||
	NOT  // !
	TILDE

	ASSIGN    // =
	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	QUOASSIGN // /=
	REMASSIGN // %=
	ANDASSIGN // &=
	ORASSIGN  // |=
	XORASSIGN // ^=
	SHLASSIGN // <<=
	SHRASSIGN // >>=
	INC       // ++
	DEC       // --

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	COMMA    // ,
	SEMI     // ;
	DOT      // .
	QUESTION // ?
	COLON    // :

	// Keywords.
	keywordBeg
	CLASS
	EXTENDS
	STATIC
	FINAL
	PUBLIC
	PRIVATE
	PROTECTED
	VOID
	INT
	LONG
	DOUBLE
	BOOLEAN
	CHAR
	IF
	ELSE
	WHILE
	FOR
	DO
	BREAK
	CONTINUE
	RETURN
	NEW
	THIS
	SUPER
	NULL
	TRUE
	FALSE
	INSTANCEOF
	TRY
	CATCH
	FINALLY
	THROW
	THROWS
	keywordEnd
)

var names = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "IDENT",
	INTLIT:    "INTLIT",
	LONGLIT:   "LONGLIT",
	DOUBLELIT: "DOUBLELIT",
	CHARLIT:   "CHARLIT",
	STRINGLIT: "STRINGLIT",

	ADD: "+", SUB: "-", MUL: "*", QUO: "/", REM: "%",
	AND: "&", OR: "|", XOR: "^", SHL: "<<", SHR: ">>",
	LAND: "&&", LOR: "||", NOT: "!", TILDE: "~",
	ASSIGN: "=", ADDASSIGN: "+=", SUBASSIGN: "-=", MULASSIGN: "*=",
	QUOASSIGN: "/=", REMASSIGN: "%=", ANDASSIGN: "&=", ORASSIGN: "|=",
	XORASSIGN: "^=", SHLASSIGN: "<<=", SHRASSIGN: ">>=",
	INC: "++", DEC: "--",
	EQL: "==", NEQ: "!=", LSS: "<", LEQ: "<=", GTR: ">", GEQ: ">=",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", COMMA: ",", SEMI: ";", DOT: ".",
	QUESTION: "?", COLON: ":",

	CLASS: "class", EXTENDS: "extends", STATIC: "static", FINAL: "final",
	PUBLIC: "public", PRIVATE: "private", PROTECTED: "protected",
	VOID: "void", INT: "int", LONG: "long", DOUBLE: "double",
	BOOLEAN: "boolean", CHAR: "char",
	IF: "if", ELSE: "else", WHILE: "while", FOR: "for", DO: "do",
	BREAK: "break", CONTINUE: "continue", RETURN: "return",
	NEW: "new", THIS: "this", SUPER: "super", NULL: "null",
	TRUE: "true", FALSE: "false", INSTANCEOF: "instanceof",
	TRY: "try", CATCH: "catch", FINALLY: "finally",
	THROW: "throw", THROWS: "throws",
}

// String returns the textual representation of the token kind: the
// operator spelling for operators, the keyword for keywords, and the kind
// name for literal classes.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup maps an identifier to its keyword kind, or IDENT if it is not a
// keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// IsAssignOp reports whether k is a (possibly compound) assignment
// operator.
func (k Kind) IsAssignOp() bool { return k >= ASSIGN && k <= SHRASSIGN }

// CompoundOp returns the underlying binary operator of a compound
// assignment operator (e.g. ADD for ADDASSIGN). It panics when k is not a
// compound assignment operator.
func (k Kind) CompoundOp() Kind {
	switch k {
	case ADDASSIGN:
		return ADD
	case SUBASSIGN:
		return SUB
	case MULASSIGN:
		return MUL
	case QUOASSIGN:
		return QUO
	case REMASSIGN:
		return REM
	case ANDASSIGN:
		return AND
	case ORASSIGN:
		return OR
	case XORASSIGN:
		return XOR
	case SHLASSIGN:
		return SHL
	case SHRASSIGN:
		return SHR
	}
	panic("token: not a compound assignment operator: " + k.String())
}

// Precedence returns the binary operator precedence of k, higher binds
// tighter; 0 means k is not a binary operator. instanceof binds at the
// relational level, as in Java.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case OR:
		return 3
	case XOR:
		return 4
	case AND:
		return 5
	case EQL, NEQ:
		return 6
	case LSS, LEQ, GTR, GEQ, INSTANCEOF:
		return 7
	case SHL, SHR:
		return 8
	case ADD, SUB:
		return 9
	case MUL, QUO, REM:
		return 10
	}
	return 0
}

// Pos is a source position: 1-based line and column plus the file name.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	f := p.File
	if f == "" {
		f = "<input>"
	}
	return fmt.Sprintf("%s:%d:%d", f, p.Line, p.Col)
}

// Token is a single lexical token with its position and, for literal
// kinds, its source text. Line and Col are 1-based, as in Pos; the file
// is the one its scanner was given — one name per token vector, so a
// token does not carry it.
type Token struct {
	Kind Kind
	Lit  string
	Line int32
	Col  int32
}

// At makes a token of the given kind and text at p.
func At(k Kind, lit string, p Pos) Token {
	return Token{Kind: k, Lit: lit, Line: int32(p.Line), Col: int32(p.Col)}
}

// Pos returns the token's position in file.
func (t Token) Pos(file string) Pos {
	return Pos{File: file, Line: int(t.Line), Col: int(t.Col)}
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, LONGLIT, DOUBLELIT, CHARLIT, STRINGLIT:
		return fmt.Sprintf("%s(%q)", names[t.Kind], t.Lit)
	}
	return t.Kind.String()
}
