// perfbench_ref — a fixed reference workload that gauges how fast the vCPU
// it runs on executes code like the repository's, right now.
//
//   perfbench_ref REPS
//
// Runs one warm-up and REPS timed repetitions of a fixed piece of work
// (about 30 ms each) and prints one line: "<median thread CPU seconds per
// repetition> <checksum>".
//
// The work imitates the repository's hot loops: tokens drawn from a seeded
// vocabulary are counted in a string-keyed hash map, adjacent pairs are
// joined into n-gram keys and counted too, and the keys are sorted. It uses
// no repository code, so it is the same program on every commit: only the
// host moves its time.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

uint64_t Next(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::vector<std::string> Vocabulary(size_t size) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  std::vector<std::string> words;
  words.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    std::string word(3 + Next(state) % 8, 'a');
    for (char& c : word) c = static_cast<char>('a' + Next(state) % 26);
    words.push_back(std::move(word));
  }
  return words;
}

// One repetition; returns a checksum so the work cannot be optimised away.
uint64_t Work(const std::vector<std::string>& vocabulary) {
  uint64_t state = 0x2545f4914f6cdd1dull;
  std::unordered_map<std::string, int> counts;
  const std::string* previous = &vocabulary[0];
  std::string key;
  for (int i = 0; i < 40000; ++i) {
    const std::string& word = vocabulary[Next(state) % vocabulary.size()];
    ++counts[word];
    key.assign(*previous).append(1, ' ').append(word);
    ++counts[key];
    previous = &word;
  }
  std::vector<const std::string*> keys;
  keys.reserve(counts.size());
  for (const auto& [k, v] : counts) keys.push_back(&k);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  uint64_t sum = 0;
  for (size_t i = 0; i < keys.size(); i += 97) sum += counts[*keys[i]] + keys[i]->size();
  return sum;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc == 2 ? std::atoi(argv[1]) : 0;
  if (reps < 1) {
    std::fprintf(stderr, "usage: perfbench_ref REPS\n");
    return 2;
  }
  const std::vector<std::string> vocabulary = Vocabulary(20000);
  uint64_t checksum = Work(vocabulary);  // warm-up: page faults, allocator
  std::vector<double> cpu;
  for (int i = 0; i < reps; ++i) {
    const double start = ThreadCpuSeconds();
    checksum += Work(vocabulary);
    cpu.push_back(ThreadCpuSeconds() - start);
  }
  std::nth_element(cpu.begin(), cpu.begin() + reps / 2, cpu.end());
  std::printf("%.9f %llu\n", cpu[reps / 2], static_cast<unsigned long long>(checksum));
  return 0;
}
