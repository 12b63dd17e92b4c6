#include "apps/mst/mst.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/collectives.hpp"
#include "graph/union_find.hpp"

namespace gbsp {

namespace {

// Every edge is identified by (w, min endpoint, max endpoint); comparisons
// use this total order so that all processors make consistent choices even
// with duplicate weights.
struct EdgeKey {
  double w = std::numeric_limits<double>::infinity();
  std::int32_t a = 0;  // min global endpoint
  std::int32_t b = 0;  // max global endpoint

  static EdgeKey make(double w, int u, int v) {
    return {w, static_cast<std::int32_t>(std::min(u, v)),
            static_cast<std::int32_t>(std::max(u, v))};
  }
  [[nodiscard]] bool valid() const {
    return w != std::numeric_limits<double>::infinity();
  }
};

bool operator<(const EdgeKey& x, const EdgeKey& y) {
  if (x.w != y.w) return x.w < y.w;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

// ---- wire formats (one type per superstep phase) --------------------------

struct LabelMsg {
  std::int32_t node = 0;   // global node id
  std::int32_t label = 0;  // its new component label
};

// Candidate / choice / endgame-candidate record.
struct EdgeMsg {
  double w = 0.0;
  std::int32_t gu = 0;      // global endpoints of the edge
  std::int32_t gv = 0;
  std::int32_t c_from = 0;  // component proposing/owning the edge
  std::int32_t c_to = 0;    // component on the other side
};

struct QueryMsg {
  std::int32_t c = 0;       // component being resolved
  std::int32_t target = 0;  // label whose parent is requested
};

struct ReplyMsg {
  std::int32_t c = 0;
  std::int32_t value = 0;
};

struct EndgameHeader {
  double weight = 0.0;        // sender's accumulated tree weight
  std::int64_t count = 0;     // sender's accumulated tree edge count
  std::int32_t ncand = 0;     // EdgeMsg records following
  std::int32_t nedges = 0;    // TreeEdgeMsg records following (collect mode)
};

struct TreeEdgeMsg {
  std::int32_t u = 0;
  std::int32_t v = 0;
  double w = 0.0;
};

struct FinalMsg {
  double weight = 0.0;
  std::int64_t count = 0;
};

std::uint64_t pair_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

}  // namespace

std::function<void(Worker&)> make_mst_program(const GraphPartition& part,
                                              MstConfig cfg,
                                              MstParallelResult* result) {
  return [&part, cfg, result](Worker& w) {
    if (w.nprocs() != part.nparts) {
      throw std::invalid_argument("mst: nprocs != partition parts");
    }
    const GraphPart& gp = part.parts[static_cast<std::size_t>(w.pid())];
    const int nl = gp.num_local;
    const int nh = gp.num_home;

    double my_weight = 0.0;
    std::int64_t my_count = 0;
    std::vector<TreeEdgeMsg> my_edges;
    auto record_edge = [&](double weight, int gu, int gv) {
      my_weight += weight;
      ++my_count;
      if (cfg.collect_edges) {
        my_edges.push_back({static_cast<std::int32_t>(gu),
                            static_cast<std::int32_t>(gv), weight});
      }
    };

    // ---------------- phase 1: local merges that are provably safe ---------
    // One Kruskal-style pass over the home-home edges in ascending order.
    // An edge may be taken only when it is lighter than the lightest border
    // edge of either endpoint's component: all lighter home-home edges have
    // already been processed, so the edge is then the minimum edge leaving
    // that component — in the MST by the cut property. (Rejections are
    // final: component border minima only decrease under unions.)
    UnionFind uf(nh);
    {
      const EdgeKey kNoBorder{};  // infinity: component touches no border
      std::vector<EdgeKey> border_min(static_cast<std::size_t>(nh),
                                      kNoBorder);
      struct HomeEdge {
        EdgeKey key;
        int u_local, v_local;
        double w;
      };
      std::vector<HomeEdge> home_edges;
      for (int u = 0; u < nh; ++u) {
        const int gu = gp.local_to_global[static_cast<std::size_t>(u)];
        const auto nbrs = gp.neighbors(u);
        const auto ws = gp.edge_weights(u);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          const int v = nbrs[e];
          const int gv = gp.local_to_global[static_cast<std::size_t>(v)];
          const EdgeKey key = EdgeKey::make(ws[e], gu, gv);
          if (gp.is_home(v)) {
            if (u < v) home_edges.push_back({key, u, v, ws[e]});
          } else if (key < border_min[static_cast<std::size_t>(u)]) {
            border_min[static_cast<std::size_t>(u)] = key;
          }
        }
      }
      std::sort(home_edges.begin(), home_edges.end(),
                [](const HomeEdge& a, const HomeEdge& b) {
                  return a.key < b.key;
                });
      for (const HomeEdge& e : home_edges) {
        const int ru = uf.find(e.u_local);
        const int rv = uf.find(e.v_local);
        if (ru == rv) continue;
        if (e.key < border_min[static_cast<std::size_t>(ru)] ||
            e.key < border_min[static_cast<std::size_t>(rv)]) {
          uf.unite(ru, rv);
          const int rn = uf.find(ru);
          border_min[static_cast<std::size_t>(rn)] =
              std::min(border_min[static_cast<std::size_t>(ru)],
                       border_min[static_cast<std::size_t>(rv)]);
          record_edge(
              e.w, gp.local_to_global[static_cast<std::size_t>(e.u_local)],
              gp.local_to_global[static_cast<std::size_t>(e.v_local)]);
        }
      }
    }

    // Labels: minimum global id in the local fragment.
    std::vector<int> label(static_cast<std::size_t>(nl), -1);
    {
      std::unordered_map<int, int> min_global;  // uf root -> min global id
      for (int u = 0; u < nh; ++u) {
        const int r = uf.find(u);
        const int gu = gp.local_to_global[static_cast<std::size_t>(u)];
        auto [it, fresh] = min_global.emplace(r, gu);
        if (!fresh && gu < it->second) it->second = gu;
      }
      for (int u = 0; u < nh; ++u) {
        label[static_cast<std::size_t>(u)] = min_global.at(uf.find(u));
      }
    }

    // Initial labels to watchers (fills every border copy's label).
    auto push_labels_to_watchers = [&](const std::vector<int>& changed_homes) {
      for (int h : changed_homes) {
        const LabelMsg m{static_cast<std::int32_t>(
                             gp.local_to_global[static_cast<std::size_t>(h)]),
                         static_cast<std::int32_t>(
                             label[static_cast<std::size_t>(h)])};
        for (int dest : gp.watchers[static_cast<std::size_t>(h)]) {
          w.send(dest, m);
        }
      }
      w.sync();
      while (const Message* m = w.get_message()) {
        const LabelMsg lm = m->as<LabelMsg>();
        label[static_cast<std::size_t>(gp.global_to_local.at(lm.node))] =
            lm.label;
      }
    };
    {
      std::vector<int> all_homes(static_cast<std::size_t>(nh));
      for (int h = 0; h < nh; ++h) all_homes[static_cast<std::size_t>(h)] = h;
      push_labels_to_watchers(all_homes);
    }

    auto count_components = [&]() -> std::int64_t {
      std::int64_t mine = 0;
      for (int h = 0; h < nh; ++h) {
        if (label[static_cast<std::size_t>(h)] ==
            gp.local_to_global[static_cast<std::size_t>(h)]) {
          ++mine;
        }
      }
      const auto counts = allgather(w, mine);
      std::int64_t total = 0;
      for (auto c : counts) total += c;
      return total;
    };

    const std::int64_t threshold = std::max<std::int64_t>(
        cfg.endgame_components, 2 * static_cast<std::int64_t>(w.nprocs()));

    std::int64_t components = count_components();
    std::int64_t prev_components = -1;
    int round = 0;

    // ---------------- phase 2: distributed Boruvka rounds ------------------
    while (components > threshold && components != prev_components &&
           round < cfg.max_rounds) {
      prev_components = components;
      ++round;

      // Owned live labels for this round.
      std::unordered_map<int, int> parent;  // label -> parent label
      for (int h = 0; h < nh; ++h) {
        const int gh = gp.local_to_global[static_cast<std::size_t>(h)];
        if (label[static_cast<std::size_t>(h)] == gh) parent.emplace(gh, gh);
      }

      // (a) best outgoing edge per local fragment -> component owner.
      {
        std::unordered_map<int, EdgeMsg> best;  // my fragment label -> best
        for (int u = 0; u < nh; ++u) {
          const int lu = label[static_cast<std::size_t>(u)];
          const int gu = gp.local_to_global[static_cast<std::size_t>(u)];
          const auto nbrs = gp.neighbors(u);
          const auto ws = gp.edge_weights(u);
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const int v = nbrs[e];
            const int lv = label[static_cast<std::size_t>(v)];
            if (lu == lv) continue;
            const int gv = gp.local_to_global[static_cast<std::size_t>(v)];
            const EdgeKey key = EdgeKey::make(ws[e], gu, gv);
            auto [it, fresh] = best.emplace(
                lu, EdgeMsg{ws[e], static_cast<std::int32_t>(gu),
                            static_cast<std::int32_t>(gv),
                            static_cast<std::int32_t>(lu),
                            static_cast<std::int32_t>(lv)});
            if (!fresh &&
                key < EdgeKey::make(it->second.w, it->second.gu,
                                    it->second.gv)) {
              it->second = EdgeMsg{ws[e], static_cast<std::int32_t>(gu),
                                   static_cast<std::int32_t>(gv),
                                   static_cast<std::int32_t>(lu),
                                   static_cast<std::int32_t>(lv)};
            }
          }
        }
        for (const auto& [lu, cand] : best) {
          w.send(part.owner[static_cast<std::size_t>(lu)], cand);
        }
      }
      w.sync();

      // (b) owners pick global minima and exchange choices.
      std::unordered_map<int, EdgeMsg> choice;  // owned label -> chosen edge
      while (const Message* m = w.get_message()) {
        const EdgeMsg cand = m->as<EdgeMsg>();
        auto [it, fresh] = choice.emplace(cand.c_from, cand);
        if (!fresh && EdgeKey::make(cand.w, cand.gu, cand.gv) <
                          EdgeKey::make(it->second.w, it->second.gu,
                                        it->second.gv)) {
          it->second = cand;
        }
      }
      for (const auto& [c, ch] : choice) {
        w.send(part.owner[static_cast<std::size_t>(ch.c_to)], ch);
      }
      w.sync();

      // (c) hooking. Mutual choices (c <-> c2) involve the same edge under
      // the total order; the smaller label becomes the root and records it.
      {
        std::unordered_map<std::uint64_t, char> incoming;  // (from,to) pairs
        while (const Message* m = w.get_message()) {
          const EdgeMsg ch = m->as<EdgeMsg>();
          incoming.emplace(
              (static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(ch.c_from))
               << 32) |
                  static_cast<std::uint32_t>(ch.c_to),
              1);
        }
        for (const auto& [c, ch] : choice) {
          const bool mutual =
              incoming.count((static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(ch.c_to))
                              << 32) |
                             static_cast<std::uint32_t>(c)) != 0;
          if (mutual && c < ch.c_to) {
            parent[c] = c;  // root of the mutual pair
            record_edge(ch.w, ch.gu, ch.gv);
          } else {
            parent[c] = ch.c_to;
            if (!mutual) record_edge(ch.w, ch.gu, ch.gv);
          }
        }
      }

      // (d) pointer jumping: parent[c] <- parent[parent[c]] until stable.
      for (;;) {
        for (const auto& [c, pc] : parent) {
          if (pc != c) {
            w.send(part.owner[static_cast<std::size_t>(pc)],
                   QueryMsg{static_cast<std::int32_t>(c),
                            static_cast<std::int32_t>(pc)});
          }
        }
        w.sync();
        while (const Message* m = w.get_message()) {
          const QueryMsg q = m->as<QueryMsg>();
          w.send(static_cast<int>(m->source),
                 ReplyMsg{q.c, static_cast<std::int32_t>(
                                   parent.at(q.target))});
        }
        w.sync();
        bool changed = false;
        while (const Message* m = w.get_message()) {
          const ReplyMsg r = m->as<ReplyMsg>();
          int& pc = parent.at(r.c);
          if (pc != r.value) {
            pc = r.value;
            changed = true;
          }
        }
        const auto flags = allgather(w, changed ? 1 : 0);
        if (std::none_of(flags.begin(), flags.end(),
                         [](int f) { return f != 0; })) {
          break;
        }
      }

      // (e) refresh node labels from their old component's root.
      {
        std::unordered_map<int, int> root_of;  // old label -> root
        for (int h = 0; h < nh; ++h) root_of.emplace(label[static_cast<std::size_t>(h)], -1);
        for (auto& [old_label, root] : root_of) {
          const int owner = part.owner[static_cast<std::size_t>(old_label)];
          if (owner == w.pid()) {
            root = parent.at(old_label);
          } else {
            w.send(owner, QueryMsg{static_cast<std::int32_t>(old_label),
                                   static_cast<std::int32_t>(old_label)});
          }
        }
        w.sync();
        while (const Message* m = w.get_message()) {
          const QueryMsg q = m->as<QueryMsg>();
          w.send(static_cast<int>(m->source),
                 ReplyMsg{q.c,
                          static_cast<std::int32_t>(parent.at(q.target))});
        }
        w.sync();
        while (const Message* m = w.get_message()) {
          const ReplyMsg r = m->as<ReplyMsg>();
          root_of.at(r.c) = r.value;
        }
        std::vector<int> changed_homes;
        for (int h = 0; h < nh; ++h) {
          const int root = root_of.at(label[static_cast<std::size_t>(h)]);
          if (root != label[static_cast<std::size_t>(h)]) {
            label[static_cast<std::size_t>(h)] = root;
            if (!gp.watchers[static_cast<std::size_t>(h)].empty()) {
              changed_homes.push_back(h);
            }
          }
        }
        push_labels_to_watchers(changed_homes);
      }

      components = count_components();
    }

    // ---------------- phase 3: endgame on processor 0 -----------------------
    {
      std::unordered_map<std::uint64_t, EdgeMsg> pair_best;
      for (int u = 0; u < nh; ++u) {
        const int lu = label[static_cast<std::size_t>(u)];
        const int gu = gp.local_to_global[static_cast<std::size_t>(u)];
        const auto nbrs = gp.neighbors(u);
        const auto ws = gp.edge_weights(u);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          const int v = nbrs[e];
          const int lv = label[static_cast<std::size_t>(v)];
          if (lu == lv) continue;
          const int gv = gp.local_to_global[static_cast<std::size_t>(v)];
          const EdgeMsg cand{ws[e], static_cast<std::int32_t>(gu),
                             static_cast<std::int32_t>(gv),
                             static_cast<std::int32_t>(lu),
                             static_cast<std::int32_t>(lv)};
          auto [it, fresh] = pair_best.emplace(pair_key(lu, lv), cand);
          if (!fresh && EdgeKey::make(cand.w, cand.gu, cand.gv) <
                            EdgeKey::make(it->second.w, it->second.gu,
                                          it->second.gv)) {
            it->second = cand;
          }
        }
      }
      EndgameHeader hdr;
      hdr.weight = my_weight;
      hdr.count = my_count;
      hdr.ncand = static_cast<std::int32_t>(pair_best.size());
      hdr.nedges = static_cast<std::int32_t>(my_edges.size());
      std::vector<std::uint8_t> buf(sizeof(hdr) +
                                    pair_best.size() * sizeof(EdgeMsg) +
                                    my_edges.size() * sizeof(TreeEdgeMsg));
      std::memcpy(buf.data(), &hdr, sizeof(hdr));
      std::size_t off = sizeof(hdr);
      for (const auto& [k, cand] : pair_best) {
        std::memcpy(buf.data() + off, &cand, sizeof(cand));
        off += sizeof(cand);
      }
      if (!my_edges.empty()) {
        std::memcpy(buf.data() + off, my_edges.data(),
                    my_edges.size() * sizeof(TreeEdgeMsg));
      }
      // The gather leg of the endgame is exactly the bulk-collective shape:
      // each rank contributes one combined, self-describing block and rank 0
      // receives the concatenation in pid order (the same order the manual
      // drain observed — the root's own block parses first, so the floating
      // sum accumulates in the same sequence as before).
      const std::vector<std::uint8_t> all = gatherv(w, 0, buf);

      FinalMsg fin;
      if (w.pid() == 0) {
        double total_weight = 0.0;
        std::int64_t total_count = 0;
        std::vector<EdgeMsg> cands;
        std::vector<TreeEdgeMsg> all_edges;

        std::size_t o = 0;
        for (int s = 0; s < w.nprocs(); ++s) {
          EndgameHeader h;
          std::memcpy(&h, all.data() + o, sizeof(h));
          o += sizeof(h);
          total_weight += h.weight;
          total_count += h.count;
          for (std::int32_t i = 0; i < h.ncand; ++i) {
            EdgeMsg cand;
            std::memcpy(&cand, all.data() + o, sizeof(cand));
            o += sizeof(cand);
            cands.push_back(cand);
          }
          for (std::int32_t i = 0; i < h.nedges; ++i) {
            TreeEdgeMsg te;
            std::memcpy(&te, all.data() + o, sizeof(te));
            o += sizeof(te);
            all_edges.push_back(te);
          }
        }
        if (o != all.size()) {
          throw std::logic_error("mst: endgame gather size mismatch");
        }

        // Kruskal over the contracted component graph.
        std::sort(cands.begin(), cands.end(),
                  [](const EdgeMsg& x, const EdgeMsg& y) {
                    return EdgeKey::make(x.w, x.gu, x.gv) <
                           EdgeKey::make(y.w, y.gu, y.gv);
                  });
        std::unordered_map<int, int> dense;
        auto dense_id = [&](int lbl) {
          auto [it, fresh] =
              dense.emplace(lbl, static_cast<int>(dense.size()));
          return it->second;
        };
        for (const auto& c : cands) {
          dense_id(c.c_from);
          dense_id(c.c_to);
        }
        UnionFind comp_uf(static_cast<int>(dense.size()));
        for (const auto& c : cands) {
          if (comp_uf.unite(dense_id(c.c_from), dense_id(c.c_to))) {
            total_weight += c.w;
            ++total_count;
            if (cfg.collect_edges) {
              all_edges.push_back({c.gu, c.gv, c.w});
            }
          }
        }

        result->total_weight = total_weight;
        result->edge_count = total_count;
        if (cfg.collect_edges) {
          result->edges.clear();
          result->edges.reserve(all_edges.size());
          for (const auto& te : all_edges) {
            result->edges.push_back({te.u, te.v, te.w});
          }
        }
        fin = {total_weight, total_count};
      }
      // Direct is forced so the fan-out stays one superstep — the same
      // boundary count as the hand-rolled send loop it replaced (the tree
      // schedule would add log2(p) boundaries and shift every superstep
      // statistic the tests pin down).
      // broadcast_span itself proves delivery on every non-root rank (a
      // missing or short message throws), replacing the manual null check.
      broadcast_span(w, 0, &fin, 1, CollectiveSchedule::Direct);
    }
  };
}

MstParallelResult bsp_mst(const Graph& g, const std::vector<Point2>& points,
                          int nprocs, MstConfig cfg) {
  const GraphPartition part = partition_by_stripes(g, points, nprocs);
  MstParallelResult result;
  Config rc;
  rc.nprocs = nprocs;
  Runtime rt(rc);
  rt.run(make_mst_program(part, cfg, &result));
  return result;
}

}  // namespace gbsp
