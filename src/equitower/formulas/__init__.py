"""Formula kernel: AST, s-expression parser/printer, schema expansions, and
the bounded evaluator with per-relation oracle/formula dispatch."""
