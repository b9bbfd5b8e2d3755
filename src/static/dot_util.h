/**
 * @file
 * Graphviz helpers shared by every DOT emitter (`wasabi analyze
 * --dot=`, the seed and refined call graphs): label escaping plus
 * one generic digraph renderer, so node/edge styling conventions live
 * in a single place. Function debug names come from an untrusted name
 * section and may contain quotes, backslashes or arbitrary non-ASCII
 * bytes; emitted verbatim inside a quoted DOT string they would break
 * the output's syntax.
 */

#ifndef WASABI_STATIC_DOT_UTIL_H
#define WASABI_STATIC_DOT_UTIL_H

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "wasm/module.h"

namespace wasabi::static_analysis {

/**
 * Escape @p s for use inside a double-quoted DOT string: quotes and
 * backslashes are backslash-escaped, newlines become the `\n` label
 * escape, and control/non-ASCII bytes are rendered as literal
 * `\xNN` text (with the backslash itself escaped, so Graphviz treats
 * it as plain characters). The result is always valid inside
 * `"`...`"`.
 */
inline std::string
escapeDotLabel(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"') {
            out += "\\\"";
        } else if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else if (c < 0x20 || c >= 0x7F) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\\\x%02X", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

/** One node of a rendered digraph. `label` must be pre-escaped. */
struct DotNode {
    std::string id;
    std::string label;
    bool dashed = false; ///< rendered `style=dashed` (dead/unknown)
};

/** Function @p f as node `fN`, labeled with its escaped debug name
 * (or `fN` when it has none); @p dashed marks a dead function. */
inline DotNode
funcDotNode(const wasm::Module &m, uint32_t f, bool dashed)
{
    std::string id = "f" + std::to_string(f);
    const std::string &name = m.functions[f].debugName;
    std::string label = name.empty() ? id : escapeDotLabel(name);
    return DotNode{std::move(id), std::move(label), dashed};
}

/** One edge of a rendered digraph. `label` must be pre-escaped. */
struct DotEdge {
    std::string from;
    std::string to;
    std::string label;   ///< optional edge label (e.g. site index)
    bool dashed = false; ///< unresolved/approximate edge
    bool bold = false;   ///< statically proven unique edge
};

/**
 * Render a digraph with the house style (box nodes). All call-graph
 * emitters — whole-module, refined, per-site — go through here so the
 * styling stays consistent and escaping cannot be forgotten per
 * emitter.
 */
inline std::string
renderDigraph(const std::string &name, const std::vector<DotNode> &nodes,
              const std::vector<DotEdge> &edges)
{
    std::string out = "digraph " + name + " {\n  node [shape=box];\n";
    for (const DotNode &n : nodes) {
        out += "  " + n.id + " [label=\"" + n.label + "\"";
        if (n.dashed)
            out += ", style=dashed";
        out += "];\n";
    }
    for (const DotEdge &e : edges) {
        out += "  " + e.from + " -> " + e.to;
        std::string attrs;
        if (!e.label.empty())
            attrs += "label=\"" + e.label + "\"";
        if (e.dashed)
            attrs += std::string(attrs.empty() ? "" : ", ") +
                     "style=dashed";
        if (e.bold)
            attrs += std::string(attrs.empty() ? "" : ", ") +
                     "style=bold";
        if (!attrs.empty())
            out += " [" + attrs + "]";
        out += ";\n";
    }
    out += "}\n";
    return out;
}

} // namespace wasabi::static_analysis

#endif // WASABI_STATIC_DOT_UTIL_H
