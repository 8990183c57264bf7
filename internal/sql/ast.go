package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"scanshare/internal/record"
)

// Expr is a parsed expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColRef references a column by name.
type ColRef struct{ Name string }

// Literal is a constant: a number, string, date, or boolean.
type Literal struct{ Val record.Value }

// Bool wraps a boolean literal (record has no bool kind; the evaluator keeps
// booleans in its own domain).
type Bool struct{ Val bool }

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// Binary is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or logical (AND OR).
type Binary struct {
	Op   string
	L, R Expr
}

func (ColRef) exprNode()  {}
func (Literal) exprNode() {}
func (Bool) exprNode()    {}
func (Unary) exprNode()   {}
func (Binary) exprNode()  {}

// String renders the expression with full parenthesization.
func (e ColRef) String() string { return e.Name }

// String renders the literal in the dialect's own syntax, so rendered
// statements re-parse: strings get SQL quoting (a quote inside is doubled),
// dates the DATE prefix, and floats keep a decimal point (the parser types
// by its presence).
func (e Literal) String() string {
	switch e.Val.Kind {
	case record.KindString:
		return "'" + strings.ReplaceAll(e.Val.S, "'", "''") + "'"
	case record.KindDate:
		return "DATE '" + FormatDate(e.Val.I) + "'"
	case record.KindFloat64:
		s := strconv.FormatFloat(e.Val.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case record.KindInt64:
		return strconv.FormatInt(e.Val.I, 10)
	default:
		return e.Val.GoString()
	}
}

func (e Bool) String() string {
	if e.Val {
		return "TRUE"
	}
	return "FALSE"
}

func (e Unary) String() string { return fmt.Sprintf("(%s %s)", e.Op, e.X) }

func (e Binary) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// SelectItem is one projection: a plain expression or an aggregate call.
// Agg is "" for plain expressions, or one of count/sum/avg/min/max; Star
// marks COUNT(*).
type SelectItem struct {
	Agg   string
	Star  bool // SELECT * (Agg=="") or COUNT(*) (Agg=="count")
	Expr  Expr // nil when Star
	Alias string
}

// String renders the item.
func (s SelectItem) String() string {
	inner := "*"
	if s.Expr != nil {
		inner = s.Expr.String()
	}
	out := inner
	if s.Agg != "" {
		out = fmt.Sprintf("%s(%s)", s.Agg, inner)
	}
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// OrderTerm is one ORDER BY column.
type OrderTerm struct {
	Col  string
	Desc bool
}

// Join is the parsed JOIN clause: the right table and the two equi-join
// columns (left column from the FROM table, right column from the joined
// table).
type Join struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Select is a parsed statement.
type Select struct {
	Items   []SelectItem
	From    string
	Join    *Join // nil when absent
	Where   Expr  // nil when absent
	GroupBy []string
	OrderBy []OrderTerm
	Limit   int64
	HasLim  bool
}

// String renders the statement back to SQL-ish text.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From)
	if s.Join != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", s.Join.Table, s.Join.LeftCol, s.Join.RightCol)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(s.GroupBy, ", "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Col)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.HasLim {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// columnRefs appends to dst the name of every column e references that dst
// does not hold yet, in order of appearance.
func columnRefs(dst []string, e Expr) []string {
	switch x := e.(type) {
	case ColRef:
		if !slices.Contains(dst, x.Name) {
			dst = append(dst, x.Name)
		}
	case Unary:
		dst = columnRefs(dst, x.X)
	case Binary:
		dst = columnRefs(columnRefs(dst, x.L), x.R)
	}
	return dst
}

// nodeCount returns the number of nodes in an expression tree; the binder
// derives the scan's CPU weight from it.
func nodeCount(e Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case Unary:
		return 1 + nodeCount(x.X)
	case Binary:
		return 1 + nodeCount(x.L) + nodeCount(x.R)
	default:
		return 1
	}
}
