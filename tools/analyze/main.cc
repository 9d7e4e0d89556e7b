/**
 * @file
 * dlvp-analyze CLI: run the repo's static-analysis rules over the
 * source tree (or an explicit file list) and exit nonzero on findings.
 *
 *   dlvp-analyze --root .                        # lint the whole tree
 *   dlvp-analyze --compile-commands build/compile_commands.json
 *   dlvp-analyze --rule determinism src/trace/memory_image.cc
 *   dlvp-analyze --compile-commands build/compile_commands.json \
 *                --json                           # CI mode
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze.hh"

namespace fs = std::filesystem;
using dlvp::analyze::AnalyzeConfig;
using dlvp::analyze::Finding;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: dlvp-analyze [options] [files...]\n"
          "  --root <dir>              repo root to scan (default: .)\n"
          "  --compile-commands <json> add translation units from a\n"
          "                            compile_commands.json\n"
          "  --layers <txt>            layering manifest (default:\n"
          "                            <root>/tools/analyze/layers.txt;\n"
          "                            'none' disables)\n"
          "  --json                    machine-readable findings on\n"
          "                            stdout instead of file:line\n"
          "  --rule <name>             restrict to a rule (repeatable):\n"
          "                            ";
    bool first = true;
    for (const std::string &r : dlvp::analyze::allRules()) {
        os << (first ? "" : ", ") << r;
        first = false;
    }
    os << "\n  --list-rules              print rule names and exit\n"
          "  -h, --help                this text\n"
          "\n"
          "With no explicit files, every .cc/.hh/.cpp under <root>/src,\n"
          "<root>/tools, <root>/bench, and <root>/examples is analyzed.\n"
          "Exit status: 0 clean, 1 findings, 2 usage error.\n";
}

/** All C++ sources under the scanned top-level directories, sorted. */
std::vector<std::string>
defaultFileSet(const fs::path &root)
{
    std::vector<std::string> files;
    for (const char *sub : {"src", "tools", "bench", "examples"}) {
        const fs::path dir = root / sub;
        std::error_code ec;
        if (!fs::exists(dir, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir, ec);
             it != fs::recursive_directory_iterator();
             it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext == ".cc" || ext == ".hh" || ext == ".cpp")
                files.push_back(it->path().string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * "file" entries from compile_commands.json. A full JSON parser would
 * be overkill for the schema cmake emits; the quoted-path regex also
 * sidesteps needing any third-party dependency.
 */
std::vector<std::string>
compileCommandFiles(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "dlvp-analyze: cannot read " << path << "\n";
        return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::vector<std::string> files;
    static const std::regex re(R"re("file"\s*:\s*"([^"]+)")re");
    auto begin = std::sregex_iterator(text.begin(), text.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        files.push_back((*it)[1].str());
    return files;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string compileCommands;
    std::string layers;
    bool layersSet = false;
    bool json = false;
    AnalyzeConfig config;
    std::vector<std::string> explicitFiles;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "dlvp-analyze: " << arg
                          << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "-h" || arg == "--help") {
            usage(std::cout);
            return 0;
        } else if (arg == "--list-rules") {
            for (const std::string &r : dlvp::analyze::allRules())
                std::cout << r << "\n";
            return 0;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--root") {
            const char *v = value();
            if (!v)
                return 2;
            root = v;
        } else if (arg == "--compile-commands") {
            const char *v = value();
            if (!v)
                return 2;
            compileCommands = v;
        } else if (arg == "--layers") {
            const char *v = value();
            if (!v)
                return 2;
            layers = v;
            layersSet = true;
        } else if (arg == "--rule") {
            const char *v = value();
            if (!v)
                return 2;
            const auto &known = dlvp::analyze::allRules();
            if (std::find(known.begin(), known.end(), v) ==
                known.end()) {
                std::cerr << "dlvp-analyze: unknown rule '" << v
                          << "'";
                const std::string hint =
                    dlvp::analyze::suggestRule(v);
                if (!hint.empty())
                    std::cerr << " (did you mean '" << hint << "'?)";
                std::cerr << "\n";
                return 2;
            }
            config.rules.push_back(v);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "dlvp-analyze: unknown option '" << arg
                      << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            explicitFiles.push_back(arg);
        }
    }

    config.rootPath = root;
    if (!explicitFiles.empty()) {
        config.files = explicitFiles;
    } else {
        config.files = defaultFileSet(root);
        if (config.files.empty()) {
            std::cerr << "dlvp-analyze: no sources under " << root
                      << "/src or " << root << "/tools\n";
            return 2;
        }
    }
    if (!compileCommands.empty()) {
        std::set<std::string> seen(config.files.begin(),
                                   config.files.end());
        for (std::string &f : compileCommandFiles(compileCommands)) {
            std::error_code ec;
            if (fs::exists(f, ec) && seen.insert(f).second)
                config.files.push_back(std::move(f));
        }
    }

    if (layersSet) {
        config.layersPath = layers == "none" ? "" : layers;
    } else {
        const fs::path def =
            fs::path(root) / "tools" / "analyze" / "layers.txt";
        std::error_code ec;
        if (fs::exists(def, ec))
            config.layersPath = def.string();
    }

    const std::vector<Finding> findings =
        dlvp::analyze::runAnalysis(config);
    if (json)
        dlvp::analyze::printFindingsJson(findings, std::cout);
    else
        dlvp::analyze::printFindings(findings, std::cout);
    return findings.empty() ? 0 : 1;
}
